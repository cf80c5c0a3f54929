"""Point-set machinery over finite extensions.

Projective enumeration, rank-variety point sets (one Jordan type per
orbit of the symmetries a module declares), zero sets of the p_k form,
generic Jordan type estimation by seeded sampling, maximal-set
membership, wreath-product orbits, point-count dimension estimates and
the Green-vertex witness search.

A swept point is one row of normalized codes (projective_codes); Points
of Fels are built only to name points in output.  Jordan types come
from modrep.jordan_types_at on the coefficient rows of the codes.
"""

from __future__ import annotations

import csv
import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional

import numpy as np

from .gf import FieldCtx, field_create
from .linalg import (
    Dominance,
    JordanType,
    _ranks,
    dominance_compare,
    elim_dtype,
)
from .modrep import (
    EAModule,
    MismatchedContext,
    Point,
    Symmetry,
    ZeroPoint,
    direct_sum,
    jordan_types_at,
    lift_to_extension,
    linear_variety_module,
    point_jordan_type,
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


def code_points(field: FieldCtx, rows) -> list:
    """The Points of a list of code rows, one Fel made per distinct code."""
    els = {c: field.el(field.from_code(c)) for c in set().union(*rows)}
    return [Point(tuple(els[c] for c in row)) for row in rows]


def enumerate_projective(field: FieldCtx, k: int):
    """All normalized projective points, sorted by coordinate codes.

    There are (q^k - 1)/(q - 1) of them; raises TooLarge past the
    10^7 affine cap.
    """
    return code_points(field, projective_codes(field, k).tolist())


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

    The type is computed once per orbit of the symmetries the module
    declares (module.symmetry), at the orbit's first point, and the
    report keeps it once for all the orbit's points.  lift_to_extension
    declares Frobenius and d_r adds coordinate permutations; loaded
    files, bare EAModule(...) and modules derived by direct_sum, tensor,
    wedge and the like declare none and get one type per point.

    The orbit representatives are typed in one jordan_types_at call on
    their coefficients.

    The module must already live over the sweep field; subfield modules
    are re-built over the larger field rather than embedded.
    """
    if field != module.field:
        raise MismatchedContext("module must be constructed over the sweep field")
    codes = projective_codes(field, module.k)
    reps = orbit_representatives(field, codes, module.symmetry)
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

    The target is given as rows of normalized codes, as zero_points
    returns them.  Sets the verdict (Equal / ProperSubset / Superset /
    Incomparable) and the witness lists on the report, points named by
    str(Point) in code order, and returns the verdict.
    """
    mine = report.variety_codes()
    theirs = set(map(tuple, np.asarray(target_codes).tolist()))
    only_mine = sorted(mine - theirs)
    only_theirs = sorted(theirs - mine)
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
    F_{p^{m+2}} and reports inconclusive if still unordered.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for degree, key in ((ext_degree, 0), (ext_degree + 2, trials)):
        ext = module.field if (degree, key) == (module.field.m, 0) else field_create(module.p, degree)
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


def in_max_jordan_set(module: EAModule, alpha, generic: JordanType) -> bool:
    """Whether the nonzero point attains the (given) generic Jordan type."""
    return point_jordan_type(module, alpha) == generic


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
    linearly independent over F_p, that is when the k x m F_p matrix of
    their coefficients has rank k: one batched rank over all the
    variety points.  A witness certifies that the variety is not
    covered by proper base subspaces.
    """
    report = variety_points(module, field)
    rows = report.codes[report.variety_mask()]
    # (N, k, 1, m) elimination stack: N matrices of k rows and m columns over F_p
    work = field.from_codes(rows)[:, :, None, :].astype(elim_dtype(field.p, field.m), order="C")
    hits = np.flatnonzero(_ranks(field_create(field.p, 1), work) == module.k)
    return code_points(field, [rows[hits[0]].tolist()])[0] if hits.size else None


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
