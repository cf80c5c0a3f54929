"""Point-set machinery over finite extensions.

Projective enumeration, rank-variety point sets (one Jordan type per
orbit of the symmetries a module declares or its entries prove), zero
sets of the p_k form, generic Jordan type estimation by seeded
sampling, point-count dimension estimates and the Green-vertex witness
search.

A swept point is one row of normalized codes (projective_codes), and
every vector given from outside becomes coefficient arrays through
FieldCtx.coerce; Points of Fels are built only to name points in output
(code_points).  Jordan types come from modrep.jordan_types_at on the
coefficient rows of the codes.
"""

from __future__ import annotations

import csv
import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional

import numpy as np

from .gf import BadParams, Fel, FieldCtx, Point, ZeroPoint, arr_mul, field_create
from .linalg import Dominance, _ranks, dominance_compare, elim_dtype
from .modrep import (
    EAModule,
    MismatchedContext,
    Symmetry,
    direct_sum,
    jordan_types_at,
    lift_to_extension,
    linear_variety_module,
)
from .stream import CounterStream
from .symrep import PkPoly, pk_eval_batch

POINT_SWEEP_CAP = 10 ** 7


class TooLarge(ValueError):
    """Raised when an enumeration would exceed the point-sweep cap."""


class DuplicateDirection(ValueError):
    """Raised when rank-2 builder directions coincide projectively."""


PointRecord = namedtuple("PointRecord", "point jordan_type")


@dataclass
class PointSetReport:
    """A projective sweep: point codes, one Jordan type per orbit, an optional comparison.

    codes is the (N, k) array of normalized point codes in
    projective_codes order, orbit[i] the index in types of point i's
    orbit, and types holds one JordanType per orbit.  points builds a
    PointRecord per point on each call, for output only.
    """

    field: FieldCtx
    k: int
    codes: np.ndarray
    orbit: np.ndarray
    types: list
    target: Optional[str] = None
    verdict: Optional[str] = None
    witnesses: Optional[dict] = None

    def variety_mask(self) -> np.ndarray:
        """(N,) booleans: whether each point's Jordan type is not free."""
        return np.array([not t.is_free() for t in self.types], dtype=bool)[self.orbit]

    def variety_codes(self) -> set:
        return set(map(tuple, self.codes[self.variety_mask()].tolist()))

    def counts(self) -> dict:
        nv = int(self.variety_mask().sum())
        return {"points": len(self.codes), "variety": nv, "free": len(self.codes) - nv}

    @property
    def points(self) -> list:
        points = code_points(self.field, self.codes.tolist())
        return [PointRecord(pt, self.types[i]) for pt, i in zip(points, self.orbit.tolist())]

    def to_dict(self) -> dict:
        coords = self.field.from_codes(self.codes).tolist()
        types = [self.types[i] for i in self.orbit.tolist()]
        out = {
            "field": self.field.to_dict(),
            "k": self.k,
            "points": [
                {"coords": c, "type": list(t.mult), "free": t.is_free()}
                for c, t in zip(coords, types)
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

    Each row's first nonzero code is 1 (the code of 1), and rows are in
    ascending lexicographic order; there are (q^k - 1)/(q - 1) of them.
    Raises TooLarge past the 10^7 affine cap.
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


def code_points(field: FieldCtx, rows) -> list:
    """The Points of a list of code rows, one Fel made per distinct code: the names of points in output."""
    els = {c: Fel(field, field.from_code(c)) for c in set().union(*rows)}
    return [Point(tuple(els[c] for c in row)) for row in rows]


def orbit_representatives(field: FieldCtx, codes: np.ndarray, symmetry: Symmetry) -> np.ndarray:
    """For each point of projective_codes, the index of the first point of its orbit.

    The group is generated by the declared symmetries: Frobenius
    x -> x^p on every coordinate, and S_k by a transposition and a
    k-cycle of the coordinates.  Images are taken on codes with the
    field's log tables (FieldCtx.code_logs).  The Frobenius image of x
    is exp[p log x]; it fixes 0 and 1, so a normalized point stays
    normalized.  A permuted point is renormalized by its leading
    coordinate a: x becomes exp[log x - log a], and 0 stays 0.  Labels
    then fall to the least index reachable along the generators.
    """
    n, k = codes.shape
    perms = []
    if Symmetry.PERMUTATIONS in symmetry and k > 1:
        perms.append([1, 0] + list(range(2, k)))
        if k > 2:
            perms.append([k - 1] + list(range(k - 1)))
    frobenius = Symmetry.FROBENIUS in symmetry and field.m > 1
    images = []
    if frobenius or perms:
        exp, log = field.code_logs()
        order = field.q - 1
    if frobenius:
        power = exp[field.p * log % order]  # x^p by code, but for the placeholder log[0]
        power[0] = 0
        images.append(power[codes])
    for perm in perms:
        image = codes[:, perm]
        lead = image[np.arange(n), (image != 0).argmax(axis=1)]
        images.append(np.where(image > 0, exp[(log[image] - log[lead, None]) % order], 0))
    place = field.q ** np.arange(k - 1, -1, -1)
    keys = codes @ place
    moves = [np.searchsorted(keys, image @ place) for image in images]
    rep = np.arange(n)
    while True:
        prev = rep
        for move in moves:
            rep = np.minimum(rep, rep[move])
        rep = rep[rep]
        if np.array_equal(rep, prev):
            return rep


def variety_points(module: EAModule, field: FieldCtx) -> PointSetReport:
    """Jordan type at every projective point; freeness is read from the type.

    The type is computed once per orbit of the module's symmetries, at
    the orbit's first point, and the report keeps it once for all the
    orbit's points.  Frobenius is read off the entries: when planes
    1..m-1 of every generator are zero, every entry lies in F_p, so X at
    alpha^p is X_alpha with every entry raised to the p, and every rank
    is the same.  Coordinate permutations are taken as declared
    (module.symmetry), which d_r does; loaded files, bare EAModule(...)
    and modules derived by direct_sum, tensor, wedge and the like
    declare none.  The orbit representatives are typed in one
    jordan_types_at call, which validates an unproven module first.  The
    module must already live over the sweep field.
    """
    if field != module.field:
        raise MismatchedContext("module must be constructed over the sweep field")
    codes = projective_codes(field, module.k)
    symmetry = module.symmetry
    if not any(g.data[:, :, 1:].any() for g in module.gens):
        symmetry |= Symmetry.FROBENIUS
    reps = orbit_representatives(field, codes, symmetry)
    firsts = np.flatnonzero(reps == np.arange(len(reps)))
    orbit = np.searchsorted(firsts, reps)  # firsts ascend and hold every rep
    types = jordan_types_at(module, field.from_codes(codes[firsts]))
    return PointSetReport(field, module.k, codes, orbit, types)


def zero_points(poly: PkPoly, field: FieldCtx) -> np.ndarray:
    """Normalized codes of the projective points where p_k vanishes, in sweep order.

    The values come from one pk_eval_batch call on the rows of
    projective_codes, on code log tables; no Fel is made.
    """
    codes = projective_codes(field, poly.k)
    values = pk_eval_batch(poly, field, codes)
    return codes[~values.any(axis=1)]


def count_affine_zeros(poly: PkPoly, field: FieldCtx) -> int:
    """Number of affine zeros of p_k over the field, origin included.

    p_k is homogeneous, so each projective zero stands for its q-1
    nonzero multiples; the origin is a zero unless p_1 = 1.  Raises
    TooLarge past the 10^7 sweep cap.
    """
    origin = 1 if poly.k > 1 else 0
    return origin + (field.q - 1) * len(zero_points(poly, field))


def compare_sets(report: PointSetReport, target_codes, target_tag: str = "target") -> str:
    """Compare the report's variety set against a target set of projective points.

    The target is rows of normalized codes, as zero_points returns them,
    found in report.codes by key (codes @ q^(k-1..0), exact below the
    sweep cap); a row that is not a point of the sweep raises ValueError.
    Sets the verdict (Equal / ProperSubset / Superset / Incomparable) and
    the witness lists on the report, points named by str(Point) in code
    order, and returns the verdict.
    """
    codes, k = report.codes, report.k
    target = np.asarray(target_codes, dtype=np.int64)
    if not target.size:
        target = target.reshape(0, k)
    if target.ndim != 2 or target.shape[1] != k:
        raise ValueError(f"target row {target[0].tolist()} is not a point with {k} codes")
    place = report.field.q ** np.arange(k - 1, -1, -1)
    at = np.minimum(np.searchsorted(codes @ place, target @ place), len(codes) - 1)
    stray = (codes[at] != target).any(axis=1)
    if stray.any():
        raise ValueError(f"target row {target[stray.argmax()].tolist()} is not a normalized "
                         f"point of the sweep over F_{report.field.q}")
    theirs = np.zeros(len(codes), dtype=bool)
    theirs[at] = True
    mine = report.variety_mask()
    only_mine, only_theirs = codes[mine & ~theirs].tolist(), codes[theirs & ~mine].tolist()
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
        "variety_not_target": [str(pt) for pt in code_points(report.field, only_mine)],
        "target_not_variety": [str(pt) for pt in code_points(report.field, only_theirs)],
    }
    return verdict


@dataclass
class GenericEvidence:
    samples: int
    ext_degree: int
    attained: int
    retried: bool = False
    inconclusive: bool = False


def generic_type(module: EAModule, ext_degree: int = 4, trials: int = 24, seed: int = 7):
    """Estimate the generic Jordan type by sampling all-nonzero points.

    Draws `trials` points with coordinates uniform in F_{p^m} minus 0
    (streams keyed by (seed, sample index)), types them all in one
    jordan_types_at call on their (trials, k, m) coefficients (codes can
    pass int64 here, unlike in a capped sweep), and returns the
    dominance maximum of the observed types with attainment evidence.
    If the top types are incomparable the sweep retries once over
    F_{p^d}, d >= ext_degree + 2 the least multiple of the module's
    field degree, and reports inconclusive if still unordered.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if module.k < 1:
        raise BadParams(f"a generic type needs k >= 1, got k = {module.k}: a rank-0 module has no points")
    m = module.field.m
    for degree, key in ((ext_degree, 0), (-(-(ext_degree + 2) // m) * m, trials)):
        ext = module.field if (degree, key) == (m, 0) else field_create(module.p, degree)
        streams = [CounterStream(seed, j) for j in range(key, key + trials)]
        draws = [[ext.from_code(1 + s.below(ext.q - 1)) for _ in range(module.k)] for s in streams]
        coords = np.array(draws, dtype=np.int64).reshape(trials, module.k, ext.m)
        types = jordan_types_at(lift_to_extension(module, ext), coords)
        distinct = list(dict.fromkeys(types))
        maxima = [t for t in distinct
                  if not any(dominance_compare(o, t) is Dominance.GREATER for o in distinct)]
        if len(maxima) == 1:
            return maxima[0], GenericEvidence(trials, degree, types.count(maxima[0]), retried=bool(key))
    return None, GenericEvidence(trials, degree, 0, retried=True, inconclusive=True)


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


def green_witness(module: EAModule, field: FieldCtx) -> Optional[tuple]:
    """A variety point lying in no proper base subspace, if one exists.

    Base subspaces are spanned by vectors with prime-field coordinates.
    Each proper one lies in a base hyperplane sum c_i x_i = 0 with c in
    F_p^k, so a point avoids them all exactly when its coordinates are
    linearly independent over F_p, that is when the k x m F_p matrix of
    their coefficients has rank k: one batched rank over all the
    variety points.  A witness, returned as its row of codes, certifies
    that the variety is not covered by proper base subspaces.
    """
    report = variety_points(module, field)
    rows = report.codes[report.variety_mask()]
    # (N, k, 1, m) elimination stack: N matrices of k rows and m columns over F_p
    work = field.from_codes(rows)[:, :, None, :].astype(elim_dtype(field.p, field.m), order="C")
    hits = np.flatnonzero(_ranks(field_create(field.p, 1), work) == module.k)
    return tuple(rows[hits[0]].tolist()) if hits.size else None


def dv_rank2_builder(p: int, field: FieldCtx, directions) -> EAModule:
    """Direct sum of one line module per direction; dimension d*p.

    Realizes the rank-2 lower bound construction: the variety is the
    union of the d distinct lines.  Directions are pairs of elements
    (FieldCtx.coerce); two span one line exactly when their 2 x 2
    determinant, one arr_mul over all pairs, vanishes.
    """
    if len(directions) < 1:
        raise ValueError("need at least one direction")
    if any(len(d) != 2 for d in directions):
        raise ValueError("directions must have two coordinates")
    vectors = field.coerce(directions, 2)
    if not vectors.any(axis=(1, 2)).all():
        raise ZeroPoint("a direction is the zero point")
    a, b = vectors[:, None], vectors[None, :]
    det = (arr_mul(field, a[..., 0, :], b[..., 1, :]) - arr_mul(field, a[..., 1, :], b[..., 0, :])) % field.p
    repeats = np.triu(~det.any(axis=2), 1).any(axis=0)  # [j]: some i < j on j's line
    if repeats.any():
        first = field.to_codes(vectors[repeats.argmax()]).tolist()
        raise DuplicateDirection(f"direction {code_points(field, [first])[0]} repeats projectively")
    summands = [linear_variety_module(p, 2, field, [v]) for v in vectors]
    acc = summands[0]
    for s in summands[1:]:
        acc = direct_sum(acc, s)
    return acc
