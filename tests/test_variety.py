import csv
import json
import re
from itertools import permutations, product

import numpy as np
import pytest

from eamod import gf
from eamod import suites
from eamod.gf import field_create
from eamod.linalg import Dominance, JordanType, _jordan_types
from eamod import modrep as mr
from eamod import symrep as sr
from eamod import variety as vy
from eamod.modrep import Point, ZeroPoint
from eamod.variety import DuplicateDirection, TooLarge

from oracles import pk_eval, slow_combination, slow_jordan_mult, slow_projective_points

F3 = field_create(3, 1)
F9 = field_create(3, 2)
F27 = field_create(3, 3)


def codes(field, coords):
    return Point.of(field, coords).normalize().codes()


def test_enumerate_projective_counts():
    assert len(vy.projective_codes(F9, 2)) == 10
    assert len(vy.projective_codes(F3, 3)) == 13
    assert len(vy.projective_codes(F27, 3)) == 757


def test_enumerate_projective_normalized_unique():
    """projective_codes against the Fel enumeration: the same rows, in the same order."""
    for field, k in [(F9, 2), (F3, 3), (F27, 2), (field_create(2, 2), 3), (field_create(5, 1), 1)]:
        pts = slow_projective_points(field, k)
        assert all(p.is_normalized() for p in pts)
        assert len({p.codes() for p in pts}) == len(pts) == (field.q ** k - 1) // (field.q - 1)
        assert [p.codes() for p in pts] == [tuple(r) for r in vy.projective_codes(field, k).tolist()]


def test_enumerate_projective_too_large():
    with pytest.raises(TooLarge):
        vy.projective_codes(field_create(3, 8), 3)


def code_set(rows):
    return set(map(tuple, rows.tolist()))


def test_zero_points_p2():
    w = F9.gen()
    zp = vy.zero_points(sr.PkPoly(3, 2), F9)
    assert zp.shape == (2, 2)
    assert zp.tolist() == sorted(zp.tolist())
    assert code_set(zp) == {codes(F9, [w, 1]), codes(F9, [2 * w, 1])}
    assert vy.zero_points(sr.PkPoly(3, 2), F3).shape == (0, 2)


def test_zero_points_p3_over_f3():
    zp = vy.zero_points(sr.PkPoly(3, 3), F3)
    assert len(zp) == 7
    nonzero = (zp != 0).sum(axis=1)
    assert (nonzero == 1).sum() == 3 and (nonzero == 3).sum() == 4


def test_variety_points_d2_e2():
    ctx = sr.SymContext(3, 2)
    module = sr.d_r(ctx, F9, 2)
    report = vy.variety_points(module, F9)
    w = F9.gen()
    assert report.variety_codes() == {codes(F9, [w, 1]), codes(F9, [2 * w, 1])}
    assert report.counts() == {"points": 10, "variety": 2, "free": 8}


def test_variety_points_d2_e3_over_prime_field():
    module = sr.d_r(sr.SymContext(3, 3), F3, 2)
    report = vy.variety_points(module, F3)
    zeros = vy.zero_points(sr.PkPoly(3, 3), F3)
    assert report.variety_codes() == code_set(zeros)
    assert len(zeros) == 7


def test_run_suite_defaults_and_validation():
    from eamod import suites

    reports = suites.run_suite("basis-change")
    assert [r.parameters for r in reports] == [
        {"p": 3, "k": 2}, {"p": 3, "k": 3}, {"p": 5, "k": 2}, {"p": 5, "k": 3},
    ]
    with pytest.raises(ValueError):
        suites.run_suite("basis-change", p=3)
    with pytest.raises(ValueError):
        suites.run_suite("nonsense")


def test_variety_points_regular_empty():
    reg = mr.regular_module(3, 2, F9)
    assert vy.variety_points(reg, F9).variety_codes() == set()


@pytest.mark.parametrize(
    "module",
    [
        mr.zero_module(3, 2, F9),
        mr.trivial_module(3, 2, F9),
        mr.regular_module(3, 2, F9),
        sr.d_r(sr.SymContext(3, 2), F9, 2),
    ],
    ids=["zero", "trivial", "regular", "d2"],
)
def test_variety_points_freeness_matches_is_free_at(module):
    report = vy.variety_points(module, F9)
    for rec in report.points:
        assert rec.jordan_type.is_free() == mr.is_free_at(module, rec.point)


def test_variety_points_field_mismatch():
    module = sr.d_r(sr.SymContext(3, 2), F3, 2)
    with pytest.raises(mr.MismatchedContext):
        vy.variety_points(module, F9)


def test_compare_sets_verdicts():
    ctx = sr.SymContext(3, 2)
    module = sr.d_r(ctx, F9, 2)
    report = vy.variety_points(module, F9)
    zeros = vy.zero_points(sr.PkPoly(3, 2), F9)
    assert vy.compare_sets(report, zeros, "pk") == "Equal"
    assert report.verdict == "Equal" and report.target == "pk"

    d1 = sr.block_model_d1(ctx, F9)
    rep1 = vy.variety_points(d1, F9)
    assert vy.compare_sets(rep1, zeros, "pk") == "Superset"
    assert len(rep1.witnesses["variety_not_target"]) == 8

    empty = vy.variety_points(mr.regular_module(3, 2, F9), F9)
    assert vy.compare_sets(empty, [], "empty") == "Equal"
    assert vy.compare_sets(empty, zeros, "pk") == "ProperSubset"


def test_compare_sets_normalizes_targets():
    w = F9.gen()
    pt = Point.of(F9, [1, w])
    assert pt.normalize() is pt
    scaled = Point.of(F9, [2 * w, 2 * w * w])
    assert scaled.normalize() == pt and scaled.normalize() is not scaled
    # a target is given by normalized codes and named by its Point
    empty = vy.variety_points(mr.regular_module(3, 2, F9), F9)
    assert vy.compare_sets(empty, [pt.codes()], "t") == "ProperSubset"
    assert empty.witnesses == {"variety_not_target": [], "target_not_variety": ["(1,w)"]}


def test_compare_sets_incomparable_witnesses_in_code_order():
    """The line through (1,1,0) against V(p_3) over F_9, against per-point Fel oracles."""
    line = mr.linear_variety_module(3, 3, F9, [[1, 1, 0]])
    report = vy.variety_points(line, F9)
    assert vy.compare_sets(report, vy.zero_points(sr.PkPoly(3, 3), F9), "pk") == "Incomparable"
    points = slow_projective_points(F9, 3)
    in_variety = [not mr.point_jordan_type(line, pt).is_free() for pt in points]
    on_pk = [not pk_eval(sr.PkPoly(3, 3), pt) for pt in points]
    witnesses = {
        "variety_not_target": [str(pt) for pt, v, z in zip(points, in_variety, on_pk) if v and not z],
        "target_not_variety": [str(pt) for pt, v, z in zip(points, in_variety, on_pk) if z and not v],
    }
    assert report.witnesses == witnesses
    assert [len(w) for w in witnesses.values()] == [1, 7]


@pytest.mark.parametrize("row", [[2, 1], [0, 0], [1, 9], [1, -1], [1, 2, 0]])
def test_compare_sets_refuses_rows_off_the_sweep(row):
    """A target row that is not a normalized sweep point is refused, not dropped."""
    report = vy.variety_points(mr.regular_module(3, 2, F9), F9)
    target = [row] if len(row) != 2 else [[1, 0], row]
    with pytest.raises(ValueError, match=re.escape(str(row))):
        vy.compare_sets(report, target, "t")
    assert report.verdict is None


def test_generic_type_examples():
    ctx3 = sr.SymContext(3, 3)
    d1 = sr.block_model_d1(ctx3, F3)
    jt, ev = vy.generic_type(d1, 4, 24, 7)
    assert jt == JordanType.from_blocks(3, [3, 3, 1])
    assert ev.samples == 24 and ev.attained >= 20 and not ev.inconclusive
    d2 = sr.d_r(ctx3, F3, 2)
    jt2, _ = vy.generic_type(d2, 4, 24, 7)
    assert jt2 == JordanType.from_blocks(3, [3] * 7)
    triv = mr.trivial_module(3, 2, F3)
    jt3, _ = vy.generic_type(triv, 2, 4, 1)
    assert jt3 == JordanType.from_blocks(3, [1])


def test_generic_type_deterministic():
    d1 = sr.block_model_d1(sr.SymContext(3, 2), F3)
    a = vy.generic_type(d1, 4, 24, 7)
    b = vy.generic_type(d1, 4, 24, 7)
    assert a[0] == b[0] and a[1] == b[1]


def test_generic_type_retries_over_a_field_holding_the_module(monkeypatch):
    # the first round over F_81 sees [3]^2[1] at 23 of 24 points; called
    # incomparable, the types force the retry, which must lift the module
    # into F_{3^8}, not F_{3^6} (ext_degree + 2 is no multiple of m = 4)
    f81 = field_create(3, 4)
    module = sr.block_model_d1(sr.SymContext(3, 3), f81)
    _, first = vy.generic_type(module, 4, 24, 7)
    assert first.ext_degree == 4 and first.attained == 23 and not first.retried
    monkeypatch.setattr(vy, "dominance_compare", lambda t1, t2: Dominance.INCOMPARABLE)
    jt, evidence = vy.generic_type(module, 4, 24, 7)
    assert evidence.ext_degree == 8 and evidence.retried
    assert jt == JordanType.from_blocks(3, [3, 3, 1]) and evidence.attained == 24


def test_in_max_jordan_set():
    ctx = sr.SymContext(3, 3)
    module = sr.block_model_d1(ctx, F9)
    generic = JordanType.from_blocks(3, [3, 3, 1])
    w = F9.gen()
    assert mr.point_jordan_type(module, Point.of(F9, [1, 1, w])) == generic
    assert mr.point_jordan_type(module, Point.of(F9, [1, 1, 1])) != generic
    # p = 3 keeps one-zero points maximal (a lone generator attains the
    # maximal type [3]^(k-1)[1] when p - 2 = 1)
    assert mr.point_jordan_type(module, Point.of(F9, [1, 1, 0])) == generic
    with pytest.raises(ZeroPoint):
        mr.point_jordan_type(module, Point.of(F9, [0, 0, 0]))


def test_free_generic_complement():
    # for a module whose generic type is free, maximal-set membership and
    # freeness coincide at every point
    module = sr.d_r(sr.SymContext(3, 2), F9, 2)
    generic, _ = vy.generic_type(module, 2, 16, 3)
    assert generic.is_free()
    for pt in slow_projective_points(F9, 2):
        assert (mr.point_jordan_type(module, pt) == generic) == mr.is_free_at(module, pt)


def test_sampled_types_dominated_by_generic():
    from eamod.linalg import Dominance, dominance_compare

    module = sr.block_model_d1(sr.SymContext(3, 3), F3)
    generic, _ = vy.generic_type(module, 4, 24, 7)
    lifted = mr.lift_to_extension(module, field_create(3, 4))
    for pt in slow_projective_points(F3, 3):
        t = mr.point_jordan_type(module, pt)
        assert dominance_compare(generic, t) in (Dominance.GREATER, Dominance.EQUAL)
    f81 = field_create(3, 4)
    from eamod.stream import CounterStream

    stream = CounterStream(5)
    for _ in range(30):
        coords = tuple(f81.el(f81.from_code(stream.below(f81.q))) for _ in range(3))
        pt = Point(coords)
        if pt.is_zero():
            continue
        t = mr.point_jordan_type(lifted, pt)
        assert dominance_compare(generic, t) in (Dominance.GREATER, Dominance.EQUAL)


def test_in_max_excludes_one_zero_points_for_p5():
    F5 = field_create(5, 1)
    module = sr.block_model_d1(sr.SymContext(5, 3), F5)
    generic = JordanType.from_blocks(5, [5, 5, 3])
    assert mr.point_jordan_type(module, Point.of(F5, [1, 1, 1])) == generic
    assert mr.point_jordan_type(module, Point.of(F5, [1, 1, 0])) != generic


def test_wreath_act_examples():
    """The axioms suite's wreath images on F_p codes, against Fel arithmetic at every point."""
    images = suites._wreath_images(3, np.array([[1, 2]]), [1, 1], [1, 0])
    assert [a.tolist() for a in images] == [[[2, 1]], [[1, 2]]]
    images = suites._wreath_images(3, np.array([[1, 2]]), [2, 1], [0, 1])
    assert [a.tolist() for a in images] == [[[2, 2]], [[1, 1]]]
    assert suites._wreath_images(3, np.array([[0, 1, 2]]), [1, 1, 1], [1, 2, 0])[0].tolist() == [[2, 0, 1]]
    for p, k in [(3, 2), (3, 3), (5, 2), (5, 3)]:
        field = field_create(p, 1)
        points = slow_projective_points(field, k)
        codes_ = np.array([pt.codes() for pt in points])
        for gamma in product(range(1, p), repeat=k):
            for sigma in permutations(range(k)):
                moved, normal = suites._wreath_images(p, codes_, gamma, sigma)
                for pt, to, image in zip(points, moved.tolist(), normal.tolist()):
                    beta = [None] * k
                    for i, (g, c) in enumerate(zip(gamma, pt.coords)):
                        beta[sigma[i]] = c * g
                    assert tuple(to) == Point(tuple(beta)).codes()
                    assert tuple(image) == Point(tuple(beta)).normalize().codes()


def test_dimension_estimate_examples():
    assert vy.dimension_estimate(17, 161, 9) == 1
    assert vy.dimension_estimate(81, 6561, 9) == 2
    with pytest.raises(ValueError):
        vy.dimension_estimate(0, 5, 9)


def test_count_affine_zeros_p2():
    assert vy.count_affine_zeros(sr.PkPoly(3, 2), F9) == 17
    f81 = field_create(3, 4)
    assert vy.count_affine_zeros(sr.PkPoly(3, 2), f81) == 161


@pytest.mark.parametrize("p,m", [(5, 2), (5, 4), (7, 2)])
def test_count_affine_zeros_p2_closed_form(p, m):
    # m even: x^{p-1} = -y^{p-1} has p-1 solutions x/y for each y != 0
    q = p ** m
    assert vy.count_affine_zeros(sr.PkPoly(p, 2), field_create(p, m)) == 1 + (q - 1) * (p - 1)


def test_count_affine_zeros_matches_bruteforce():
    # independent slow count over F_9, k = 3
    poly = sr.PkPoly(3, 3)
    slow = 0
    els = list(F9.elements())
    for a in els:
        for b in els:
            for c in els:
                if not pk_eval(poly, Point((a, b, c))):
                    slow += 1
    assert vy.count_affine_zeros(poly, F9) == slow == 57


def test_count_affine_zeros_k3_over_f81_and_constant_p1():
    assert vy.count_affine_zeros(sr.PkPoly(3, 3), field_create(3, 4)) == 6321
    # p_1 = 1 vanishes nowhere, not even at the origin
    assert vy.count_affine_zeros(sr.PkPoly(3, 1), F9) == 0


def test_fp_subspaces_counts():
    # Gaussian binomial coefficients over F_3
    assert len(vy.fp_subspaces(3, 2, 1)) == 4
    assert len(vy.fp_subspaces(3, 3, 1)) == 13
    assert len(vy.fp_subspaces(3, 3, 2)) == 13
    assert len(vy.fp_subspaces(3, 4, 2)) == 130
    for rows in vy.fp_subspaces(3, 3, 2):
        assert len(rows) == 2 and all(len(r) == 3 for r in rows)


def test_green_witness_examples():
    ctx = sr.SymContext(3, 2)
    module = sr.d_r(ctx, F9, 2)
    witness = vy.green_witness(module, F9)
    w = F9.gen()
    assert witness is not None
    assert witness.codes() in {codes(F9, [w, 1]), codes(F9, [2 * w, 1])}
    line = mr.linear_variety_module(3, 2, F9, [[1, 1]])
    assert vy.green_witness(line, F9) is None
    assert vy.green_witness(mr.regular_module(3, 2, F9), F9) is None
    # the coordinates of the line's point are F_3-independent exactly when it is a witness
    f27 = field_create(3, 3)
    u = f27.gen()
    line = mr.linear_variety_module(3, 3, f27, [[1, u, u * u]])
    assert vy.green_witness(line, f27).codes() == codes(f27, [1, u, u * u])
    assert vy.green_witness(mr.linear_variety_module(3, 3, f27, [[1, u, 1 + u]]), f27) is None
    # three coordinates in the 2-dimensional F_9 are always F_3-dependent
    assert vy.green_witness(mr.linear_variety_module(3, 3, F9, [[1, w, w + 2]]), F9) is None


def test_complementary_wedge_carries_same_variety():
    # wedge degree kp-p-1 pairs with degree p-1 (the twist by sign is
    # trivial on even permutations), so its variety is also the p_k zero set
    ctx = sr.SymContext(3, 3)
    module = mr.wedge(sr.block_model_d1(ctx, F9), 5)
    assert module.n == 21
    report = vy.variety_points(module, F9)
    zeros = vy.zero_points(sr.PkPoly(3, 3), F9)
    assert vy.compare_sets(report, zeros, "pk") == "Equal"


def test_dual_carries_same_variety():
    module = mr.dual(sr.d_r(sr.SymContext(3, 2), F9, 2))
    report = vy.variety_points(module, F9)
    zeros = vy.zero_points(sr.PkPoly(3, 2), F9)
    assert vy.compare_sets(report, zeros, "pk") == "Equal"


def test_dv_rank2_builder():
    module = vy.dv_rank2_builder(3, F9, [[1, 0], [0, 1]])
    assert module.n == 6
    report = vy.variety_points(module, F9)
    assert report.variety_codes() == {codes(F9, [1, 0]), codes(F9, [0, 1])}
    single = vy.dv_rank2_builder(3, F9, [[1, 1]])
    assert single.n == 3
    with pytest.raises(DuplicateDirection):
        vy.dv_rank2_builder(3, F9, [[1, 1], [2, 2]])
    with pytest.raises(ValueError):
        vy.dv_rank2_builder(3, F9, [])


def test_dv_rank2_with_extension_direction():
    w = F9.gen()
    module = vy.dv_rank2_builder(3, F9, [[w, 1]])
    assert module.n == 3
    report = vy.variety_points(module, F9)
    assert report.variety_codes() == {codes(F9, [w, 1])}


def test_point_set_report_serialization(tmp_path):
    """JSON and CSV bytes against rows typed point by point by the Fel oracles."""
    ctx = sr.SymContext(3, 2)
    cases = [(sr.d_r(ctx, F9, 2), "Equal", 0), (sr.block_model_d1(ctx, F9), "Superset", 8)]
    points = slow_projective_points(F9, 2)
    # V(p_2) = V(x^2 + y^2) by Fel arithmetic
    on_pk = {pt.codes() for pt in points if pt.coords[0] ** 2 + pt.coords[1] ** 2 == 0}
    for module, verdict, extra in cases:
        report = vy.variety_points(module, F9)
        assert vy.compare_sets(report, vy.zero_points(sr.PkPoly(3, 2), F9), "pk") == verdict
        gens = [[[g.get(i, j) for j in range(module.n)] for i in range(module.n)] for g in module.gens]
        types = [JordanType(3, slow_jordan_mult(slow_combination(pt.coords, gens), 3)) for pt in points]
        witnesses = {
            "variety_not_target": [
                str(pt) for pt, jt in zip(points, types) if not jt.is_free() and pt.codes() not in on_pk
            ],
            "target_not_variety": [
                str(pt) for pt, jt in zip(points, types) if jt.is_free() and pt.codes() in on_pk
            ],
        }
        assert report.witnesses == witnesses
        assert len(witnesses["variety_not_target"]) == extra
        expected = {
            "field": F9.to_dict(),
            "k": 2,
            "points": [
                {"coords": [list(c.coeffs) for c in pt.coords], "type": list(jt.mult), "free": jt.is_free()}
                for pt, jt in zip(points, types)
            ],
            "verdict": verdict,
            "target": "pk",
            "witnesses": witnesses,
        }
        assert json.dumps(report.to_dict()).encode() == json.dumps(expected).encode()
        report.write_csv(tmp_path / "points.csv")
        with open(tmp_path / "oracle.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["point", "jordan_type", "free"])
            for pt, jt in zip(points, types):
                writer.writerow([str(pt), str(jt), jt.is_free()])
        assert (tmp_path / "points.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_sweep_path_makes_no_fel(monkeypatch):
    # built first: lift_to_extension makes one Fel
    module = sr.d_r(sr.SymContext(3, 3), F27, 2)

    def refuse(self, ctx, coeffs):
        raise AssertionError("a Fel was built")

    monkeypatch.setattr(gf.Fel, "__init__", refuse)
    with pytest.raises(AssertionError):
        vy.code_points(F27, [[1]])
    report = vy.variety_points(module, F27)
    zeros = vy.zero_points(sr.PkPoly(3, 3), F27)
    assert vy.compare_sets(report, zeros, "pk") == "Equal"
    assert report.variety_codes() == code_set(zeros)
    assert report.counts() == {"points": 757, "variety": len(zeros), "free": 757 - len(zeros)}


BOTH = mr.Symmetry.FROBENIUS | mr.Symmetry.PERMUTATIONS


def undeclared(module):
    return mr.EAModule(module.p, module.k, module.field, module.gens)


@pytest.mark.parametrize(
    "p,k,m,frobenius,both",
    [(5, 3, 2, 341, 72), (3, 3, 4, 1690, 307), (3, 4, 2, 430, 42), (7, 2, 2, 29, 17), (3, 3, 3, 261, 53)],
)
def test_orbit_counts(p, k, m, frobenius, both):
    field = field_create(p, m)
    codes_ = vy.projective_codes(field, k)
    counts = [
        len(set(vy.orbit_representatives(field, codes_, sym).tolist()))
        for sym in (mr.Symmetry.NONE, mr.Symmetry.FROBENIUS, BOTH)
    ]
    assert counts == [len(codes_), frobenius, both]


@pytest.mark.parametrize("field,k", [(F9, 3), (F27, 2), (F3, 4), (field_create(5, 2), 3)])
@pytest.mark.parametrize("sym", [mr.Symmetry.FROBENIUS, mr.Symmetry.PERMUTATIONS, BOTH])
def test_orbit_representatives_match_fel_orbits(field, k, sym):
    """Each point's representative is the least normalized image over the whole group."""
    pts = slow_projective_points(field, k)
    assert [pt.codes() for pt in pts] == [tuple(r) for r in vy.projective_codes(field, k).tolist()]
    frob_powers = range(field.m) if mr.Symmetry.FROBENIUS in sym else [0]
    perms = list(permutations(range(k))) if mr.Symmetry.PERMUTATIONS in sym else [tuple(range(k))]
    reps = vy.orbit_representatives(field, vy.projective_codes(field, k), sym)
    for pt, rep in zip(pts, reps):
        images = [
            Point(tuple(pt.coords[s] ** (field.p ** j) for s in perm)).normalize().codes()
            for j in frob_powers
            for perm in perms
        ]
        assert pts[rep].codes() == min(images)


def test_declared_symmetries():
    ctx = sr.SymContext(3, 2)
    d2 = sr.d_r(ctx, F9, 2)
    assert d2.symmetry == mr.Symmetry.PERMUTATIONS
    assert sr.d_r(ctx, F3, 2).symmetry == mr.Symmetry.PERMUTATIONS
    d1 = sr.block_model_d1(ctx, F3)
    # Frobenius is read off the entries by the sweep, never declared
    assert mr.lift_to_extension(d1, F9).symmetry == mr.Symmetry.NONE
    assert mr.lift_to_extension(sr.d_r(ctx, F3, 2), F9).symmetry == mr.Symmetry.PERMUTATIONS
    assert mr.lift_to_extension(d2, F9) is d2
    derived = [
        undeclared(d2),
        mr.EAModule.from_dict(d2.to_dict()),
        mr.direct_sum(d2, d2),
        mr.tensor(d2, d2),
        mr.wedge(d2, 2),
        mr.dual(d2),
        sr.block_model_d1(ctx, F9),
    ]
    assert all(mod.symmetry == mr.Symmetry.NONE for mod in derived)
    assert mr.EAModule.from_dict(d2.to_dict()) == d2


F25 = field_create(5, 2)


def d_p_minus_1(p, k, m):
    return lambda: sr.d_r(sr.SymContext(p, k), field_create(p, m), p - 1)


# every d_r sweep the suites make at their defaults (main-thm, green,
# explore-k1modp), the benchmark's D(2) over F_27, and modules that
# declare nothing, with the symmetry the sweep must find in their entries
SWEPT = {
    **{f"{p}-{k}-{m}": (d_p_minus_1(p, k, m), BOTH)
       for p, k, m in [(3, 2, 2), (3, 3, 2), (5, 2, 2), (3, 4, 1), (3, 4, 2), (3, 3, 3)]},
    # every entry in F_p: one type per Frobenius orbit
    "d1-f9": (lambda: sr.block_model_d1(sr.SymContext(3, 3), F9), mr.Symmetry.FROBENIUS),
    "linear-f25": (lambda: mr.linear_variety_module(5, 2, F25, [[1, 2]]), mr.Symmetry.FROBENIUS),
    # entries off F_p: no Frobenius.  The generators of the line through
    # (1, w^2) over F_27 are nonzero in planes 0 and 2 only.
    "line-w-f9": (lambda: mr.linear_variety_module(3, 2, F9, [[F9.gen(), 1]]), mr.Symmetry.NONE),
    "line-w2-f27": (lambda: mr.linear_variety_module(3, 2, F27, [[1, F27.gen() ** 2]]), mr.Symmetry.NONE),
}


@pytest.mark.parametrize("case", list(SWEPT))
def test_orbit_sweep_matches_full_sweep(tmp_path, monkeypatch, case):
    """The sweep types one point per orbit, and its report is that of typing every code."""
    build, symmetry = SWEPT[case]
    module = build()
    field = module.field
    codes_ = vy.projective_codes(field, module.k)
    every = mr.jordan_types_at(module, field.from_codes(codes_))
    full = vy.PointSetReport(field, module.k, codes_, np.arange(len(codes_)), every)
    ranks, ranked, evaluated = mr._ranks, [], []

    def counted_ranks(ctx, work):
        ranked.extend(work)
        return ranks(ctx, work)

    def counted(ctx, stack, prime, rank_n):
        evaluated.extend(stack)
        return _jordan_types(ctx, stack, prime, rank_n)

    monkeypatch.setattr(mr, "_ranks", counted_ranks)
    monkeypatch.setattr(mr, "_jordan_types", counted)
    swept = vy.variety_points(module, field)
    reps = vy.orbit_representatives(field, codes_, symmetry)
    # phase one (ranks of N) types every member when p divides n, and
    # phase two takes the members it does not prove free; else phase two
    # types them all
    typed = ranked if module.n % module.p == 0 else evaluated
    assert len(typed) == len(set(reps.tolist()))
    assert len(evaluated) == sum(not t.is_free() for t in swept.types)
    assert (len(typed) < len(codes_)) == bool(symmetry)
    assert json.dumps(swept.to_dict()) == json.dumps(full.to_dict())
    swept.write_csv(tmp_path / "swept.csv")
    full.write_csv(tmp_path / "full.csv")
    assert (tmp_path / "swept.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()
