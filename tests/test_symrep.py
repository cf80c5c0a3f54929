import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eamod.gf import NonPrime, field_create
from eamod.linalg import JordanType, MatF, canonical_nilpotent, compound_matrix
from eamod import modrep as mr
from eamod import suites
from eamod import symrep as sr
from eamod.modrep import Point

from oracles import (
    leibniz_compound,
    pk_eval,
    slow_combination,
    slow_jordan_mult,
    slow_projective_points,
)

F3 = field_create(3, 1)
F9 = field_create(3, 2)
F5 = field_create(5, 1)
F25 = field_create(5, 2)

PAIRS = [(3, 2), (3, 3), (5, 2), (5, 3)]


def test_sym_context_guards():
    with pytest.raises(ValueError):
        sr.SymContext(2, 2)
    with pytest.raises(NonPrime):
        sr.SymContext(9, 2)
    ctx = sr.SymContext(3, 2)
    assert ctx.n == 6
    assert ctx.cycles() == [(1, 2, 3), (4, 5, 6)]


@pytest.mark.parametrize("p,k", PAIRS)
def test_models_have_dimension_kp_minus_2(p, k):
    ctx = sr.SymContext(p, k)
    field = field_create(p, 1)
    perm = sr.perm_model_d1(ctx, field)
    block = sr.block_model_d1(ctx, field)
    assert perm.n == block.n == k * p - 2
    mr.validate(perm)
    mr.validate(block)


def test_perm_model_generator_has_order_p():
    ctx = sr.SymContext(3, 2)
    perm = sr.perm_model_d1(ctx, F3)
    u = MatF.identity(F3, perm.n) + perm.gens[0]
    assert u.mat_pow(3) == MatF.identity(F3, perm.n)
    assert u.mat_pow(2) != MatF.identity(F3, perm.n)


@pytest.mark.parametrize("p,k", PAIRS)
def test_block_generators_annihilate_each_other(p, k):
    block = sr.block_model_d1(sr.SymContext(p, k), field_create(p, 1))
    for i in range(k):
        for j in range(k):
            if i != j:
                assert (block.gens[i] @ block.gens[j]).is_zero()


def test_block_p3_k2_relations():
    block = sr.block_model_d1(sr.SymContext(3, 2), F3)
    x1, x2 = block.gens
    # basis order: b_1 | b_2, X_2 b_2, X_2^2 b_2
    b1 = MatF.from_rows(F3, [[1], [0], [0], [0]])
    b2 = MatF.from_rows(F3, [[0], [1], [0], [0]])
    x2sq_b2 = MatF.from_rows(F3, [[0], [0], [0], [1]])
    assert x1 @ b2 == b1
    assert x1 @ b1 == x2sq_b2
    assert (x2 @ b1).is_zero()


@pytest.mark.parametrize("p,k", PAIRS + [(3, 1), (5, 1), (7, 2), (5, 4)])
def test_basis_change(p, k):
    assert sr.basis_change_check(sr.SymContext(p, k), field_create(p, 1))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_rank_one_model_is_single_chain(p):
    block = sr.block_model_d1(sr.SymContext(p, 1), field_create(p, 1))
    assert block.n == p - 2
    assert mr.point_jordan_type(block, [1]) == JordanType.from_blocks(p, [p - 2])


def test_chain_basis_matrix_invertible_is_required():
    cmat = sr.chain_basis_matrix(sr.SymContext(5, 3), F5)
    assert cmat.inv() @ cmat == MatF.identity(F5, 13)


def test_block_rank_at_all_nonzero_points():
    for p, k in PAIRS:
        block = sr.block_model_d1(sr.SymContext(p, k), field_create(p, 1))
        s_mat = mr.x_alpha(block, [1] * k)
        assert s_mat.rank() == (k - 1) * (p - 1) + p - 3


def test_jordan_types_of_d1():
    m22 = sr.block_model_d1(sr.SymContext(3, 2), F3)
    assert mr.point_jordan_type(m22, [1, 1]) == JordanType.from_blocks(3, [3, 1])
    m22_9 = sr.block_model_d1(sr.SymContext(3, 2), F9)
    w = F9.gen()
    assert mr.point_jordan_type(m22_9, [w, 1]) == JordanType.from_blocks(3, [2, 2])
    m33_9 = sr.block_model_d1(sr.SymContext(3, 3), F9)
    assert mr.point_jordan_type(m33_9, [1, 1, w]) == JordanType.from_blocks(3, [3, 3, 1])
    m33 = sr.block_model_d1(sr.SymContext(3, 3), F3)
    assert mr.point_jordan_type(m33, [1, 1, 1]) == JordanType.from_blocks(3, [3, 2, 2])


def test_rank_power_sequence_5_2():
    block = sr.block_model_d1(sr.SymContext(5, 2), F5)
    s_mat = mr.x_alpha(block, [1, 1])
    ranks = []
    power = s_mat
    for _ in range(4):
        ranks.append(power.rank())
        power = power @ s_mat
    assert ranks == [6, 4, 2, 1]


def _jordan_types(p, total):
    """Every Jordan type of the given total dimension with blocks of size at most p."""
    if total == 0:
        return [[]]
    return [[size] + rest for size in range(1, min(p, total) + 1)
            for rest in _jordan_types(size, total - size)]


# every compound the suites take at their defaults: d_r of D(1) over F_p at
# r = p - 1 (main-thm, jtdp1, indec-21, green, dimension, explore-k1modp),
# the axioms wedges of D(1) over F_3 and F_9, and wedge_jordan's 1 + N for
# every type of D(1) at p = 3, k = 2, 3
def _d1_group_matrices(p, k, field):
    return sr.block_model_d1(sr.SymContext(p, k), field).group_matrices()


SUITE_COMPOUNDS = (
    [(f"d_r-{p}-{k}", _d1_group_matrices(p, k, field_create(p, 1)), p - 1)
     for p, k in [(3, 2), (3, 3), (5, 2), (3, 4)]]
    + [(f"axioms-{k}-{field.q}-r{r}", _d1_group_matrices(3, k, field), r)
       for k, rr in [(2, (1, 2)), (3, (2,))] for field in (F3, F9) for r in rr]
    + [(f"wedge-jordan-{total}-r{r}",
        [MatF.identity(F3, total) + canonical_nilpotent(F3, JordanType.from_blocks(3, blocks))
         for blocks in _jordan_types(3, total)], r)
       for total in (4, 7) for r in (1, 2)]
)


@pytest.mark.parametrize("name,mats,r", SUITE_COMPOUNDS, ids=[case[0] for case in SUITE_COMPOUNDS])
def test_compound_matches_leibniz_on_suite_matrices(name, mats, r):
    for u in mats:
        assert compound_matrix(u, r) == leibniz_compound(u, r)


def test_pk_eval_examples():
    p33 = sr.PkPoly(3, 3)
    assert not pk_eval(p33, Point.of(F3, [1, 1, 1]))
    w = F9.gen()
    assert pk_eval(p33, Point.of(F9, [1, 1, w])) == F9.el(2)
    p32 = sr.PkPoly(3, 2)
    assert not pk_eval(p32, Point.of(F9, [w, 1]))
    assert pk_eval(sr.PkPoly(3, 1), Point.of(F3, [2])) == F3.one()


@pytest.mark.parametrize("p,k,m", [(3, 3, 2), (3, 2, 3), (5, 3, 2), (2, 4, 2), (3, 1, 2)])
def test_pk_eval_batch_matches_pk_eval(p, k, m):
    # every affine point, zero coordinates and the origin included
    field = field_create(p, m)
    codes = np.array(list(product(range(field.q), repeat=k)), dtype=np.int64)
    values = sr.pk_eval_batch(sr.PkPoly(p, k), field, codes)
    assert values.shape == (len(codes), m)
    points = [Point(tuple(field.el(field.from_code(c)) for c in row)) for row in codes.tolist()]
    assert values.tolist() == [list(pk_eval(sr.PkPoly(p, k), pt).coeffs) for pt in points]


def test_pk_vanishes_with_two_zero_coordinates():
    poly = sr.PkPoly(3, 3)
    for x in F9.elements():
        assert not pk_eval(poly, Point.of(F9, [x, 0, 0]))
        assert not pk_eval(poly, Point.of(F9, [0, x, 0]))
        assert not pk_eval(poly, Point.of(F9, [0, 0, x]))
    codes = np.kron(np.arange(9)[:, None], np.eye(3, dtype=np.int64))
    assert not sr.pk_eval_batch(poly, F9, codes).any()


@pytest.mark.parametrize(
    "p,k,m",
    [(3, 2, 1), (3, 2, 2), (3, 3, 1), (3, 3, 2), (5, 2, 1), (5, 2, 2), (5, 3, 2)],
)
def test_rank_lemma_sweeps(p, k, m):
    ctx = sr.SymContext(p, k)
    field = field_create(p, m)
    result = sr.rank_lemma_check(ctx, field)
    assert result["pass"], result
    # every nonzero affine point, and every all-nonzero one for clauses 2-4;
    # at p = 3 clause 2 restates the module dimension and is left out
    numbers = [1, 3, 4] if p == 3 else [1, 2, 3, 4]
    counts = [field.q ** k - 1] + [(field.q - 1) ** k] * (len(numbers) - 1)
    assert [c["number"] for c in result["clauses"]] == numbers
    assert [c["points_checked"] for c in result["clauses"]] == counts
    assert result["points_checked"] == counts[0]


def _break_d1(monkeypatch):
    """Make block_model_d1 return D(1) with X_1 zeroed, so the rank lemma and jtD fail."""
    real = sr.block_model_d1

    def broken(ctx, field):
        mod = real(ctx, field)
        return mr.EAModule(mod.p, mod.k, field, (MatF.zeros(field, mod.n, mod.n),) + mod.gens[1:])

    monkeypatch.setattr(sr, "block_model_d1", broken)


@pytest.mark.parametrize("p,k,m", [(3, 3, 2), (5, 3, 1)])
def test_rank_lemma_failures_against_point_oracle(monkeypatch, p, k, m):
    """Failures and counts of every clause against the Jordan type and p_k at each point."""
    _break_d1(monkeypatch)
    ctx, field, poly = sr.SymContext(p, k), field_create(p, m), sr.PkPoly(p, k)
    module = sr.block_model_d1(ctx, field)
    checked, failures = [0] * 4, [[], [], [], []]
    for pt in slow_projective_points(field, k):
        jt = mr.point_jordan_type(module, pt)
        zeros = sum(not c for c in pt.coords)
        full = jt.rank(1) == (k - 1) * (p - 1) + p - 3
        held = [full == (zeros == 0 if p >= 5 else zeros <= 1)]
        if not zeros:
            held += [jt.rank(p - 3) == 3 * k - 2, jt.rank(p - 2) == 2 * k - 2,
                     (jt.rank(p - 1) == k - 1) == bool(pk_eval(poly, pt))]
        for i, ok in enumerate(held):
            checked[i] += field.q - 1
            if not ok:
                failures[i].append([list(c.coeffs) for c in pt.coords])
    result = sr.rank_lemma_check(ctx, field)
    numbers = [1, 3, 4] if p == 3 else [1, 2, 3, 4]
    assert [c["number"] for c in result["clauses"]] == numbers
    assert [c["points_checked"] for c in result["clauses"]] == [checked[i - 1] for i in numbers]
    assert [c["failures"] for c in result["clauses"]] == [failures[i - 1] for i in numbers]
    assert not result["pass"]
    assert max(len(failures[i - 1]) for i in numbers) > 1


@pytest.mark.parametrize("p,k", [(3, 3), (5, 2)])
def test_jtd1_max_set_mismatches_against_point_oracle(monkeypatch, p, k):
    """The max-set mismatches of jtd1 against the Jordan type and p_k at each point over F_{p^2}."""
    _break_d1(monkeypatch)
    field = field_create(p, 2)
    module = sr.block_model_d1(sr.SymContext(p, k), field)
    generic = JordanType.from_blocks(p, [p] * (k - 1) + [p - 2])
    want = []
    for pt in slow_projective_points(field, k):
        maximal = bool(pk_eval(sr.PkPoly(p, k), pt)) and (p == 3 or all(pt.coords))
        if maximal != (mr.point_jordan_type(module, pt) == generic):
            want.append(str(pt))
    report = suites.suite_jtd1(p, k, ext=2, trials=4)
    (check,) = [c for c in report.checks if c.id == f"jtd1/{p}-{k}/max-set"]
    assert len(want) > 1 and check.actual == want and not check.ok


def test_d_r_dimensions():
    assert sr.d_r(sr.SymContext(3, 3), F3, 2).n == 21
    assert sr.d_r(sr.SymContext(5, 2), F5, 4).n == math.comb(8, 4)
    assert sr.d_r(sr.SymContext(3, 2), F3, 0).n == 1


@pytest.mark.parametrize("p,k", [(3, 3), (5, 2)])
def test_perm_model_against_generic_quotient_oracle(p, k):
    # rebuild the quotient action by solving coordinates in the full
    # tabloid space, with no use of the coordinate shortcut
    ctx = sr.SymContext(p, k)
    field = field_create(p, 1)
    perm = sr.perm_model_d1(ctx, field)
    n = ctx.n
    dim = n - 2

    def lift(j):  # e_j = t_j - t_1 as a length-n column
        col = [0] * n
        col[j - 1] = 1
        col[0] -= 1
        return [c % p for c in col]

    basis_cols = [lift(j) for j in range(3, n + 1)]
    relation = [sum(col[i] for col in [lift(j) for j in range(2, n + 1)]) % p for i in range(n)]
    solver = MatF.from_rows(field, [
        [basis_cols[c][r] for c in range(dim)] + [relation[r]] for r in range(n)
    ])
    for i in range(1, k + 1):
        expected = perm.gens[i - 1]
        for j in range(3, n + 1):
            image = [0] * n
            src = lift(j)
            for r in range(n):
                if src[r]:
                    image[ctx.apply_cycle(i, r + 1) - 1] = (
                        image[ctx.apply_cycle(i, r + 1) - 1] + src[r]
                    ) % p
            aug = MatF.from_rows(field, [
                [basis_cols[c][r] for c in range(dim)] + [relation[r], image[r]]
                for r in range(n)
            ])
            solved, pivots = aug.rref()
            assert dim + 1 not in pivots  # image lies in the span
            coords = [field.zero()] * (dim + 1)
            for row, col in enumerate(pivots):
                coords[col] = solved.get(row, dim + 1)
            for s in range(dim):
                g_entry = expected.get(s, j - 3) + (field.one() if s == j - 3 else field.zero())
                assert coords[s] == g_entry
    assert solver.rank() == dim + 1


def test_d1_has_no_free_summands():
    # the generators annihilate each other, so the socle product vanishes
    block = sr.block_model_d1(sr.SymContext(3, 2), F3)
    assert mr.projective_test(block) == (False, 0)
    reg = mr.regular_module(3, 2, F3)
    assert mr.projective_test(mr.direct_sum(reg, block)) == (False, 1)


def test_restrict_of_induced_trivial_is_trivial_sum():
    # induction from a rank-1 subgroup, then restriction back: the
    # subgroup acts trivially on all of it
    ind = mr.induce(mr.trivial_module(3, 1, F3), [[1, 1]])
    back = mr.restrict_to_subgroup(ind, [[1, 1]])
    assert back.k == 1 and back.n == 3
    assert back.gens[0].is_zero()


def test_perm_and_block_agree_pointwise():
    # conjugate modules share every point's Jordan type
    ctx = sr.SymContext(3, 3)
    perm = sr.perm_model_d1(ctx, F3)
    block = sr.block_model_d1(ctx, F3)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                if (a, b, c) == (0, 0, 0):
                    continue
                assert mr.point_jordan_type(perm, [a, b, c]) == mr.point_jordan_type(
                    block, [a, b, c]
                )


# (p, k, field, r) with r < p and dim D(r) = C(kp-2, r) at most 21, small
# enough for the oracle
SMALL_D_R = [
    (p, k, field, r)
    for p, k, field in [(3, 2, F9), (3, 3, F9), (3, 4, F3), (5, 2, F25)]
    for r in range(1, p)
    if math.comb(k * p - 2, r) <= 21
]


@st.composite
def d_r_permuted_points(draw):
    p, k, field, r = draw(st.sampled_from(SMALL_D_R))
    codes = draw(st.lists(st.integers(0, field.q - 1), min_size=k, max_size=k).filter(any))
    sigma = draw(st.permutations(range(k)))
    return sr.d_r(sr.SymContext(p, k), field, r), [field.el(field.from_code(c)) for c in codes], sigma


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(d_r_permuted_points())
def test_d_r_permutation_invariance_property(case):
    """D(r) has one Jordan type at alpha and at every permutation of its coordinates."""
    mod, alpha, sigma = case
    moved = [alpha[s] for s in sigma]
    gens = [[[g.get(i, j) for j in range(mod.n)] for i in range(mod.n)] for g in mod.gens]
    expect = slow_jordan_mult(slow_combination(alpha, gens), mod.p)
    assert slow_jordan_mult(slow_combination(moved, gens), mod.p) == expect
    assert mr.point_jordan_type(mod, alpha).mult == expect
    assert mr.point_jordan_type(mod, moved).mult == expect


def test_peel_dim_matches_the_modules():
    from eamod.suites import peel_dim

    assert [peel_dim(9, r) for r in range(3)] == [1, 7, 21]
    for p, k in ((3, 2), (3, 3), (5, 2)):
        ctx = sr.SymContext(p, k)
        field = field_create(p, 1)
        assert [peel_dim(k * p, r) for r in range(p)] == [sr.d_r(ctx, field, r).n for r in range(p)]
