import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from eamod import gf
from eamod.gf import BadParams, FieldCtx, field_create
from eamod import commutant as cm
from eamod import linalg
from eamod.linalg import (
    BrokenInvariant,
    JordanType,
    MatF,
    canonical_nilpotent,
    elim_dtype,
    _jordan_types,
)
from eamod import modrep as mr
from eamod import symrep as sr
from eamod.modrep import (
    DependentGenerators,
    EAModule,
    MismatchedContext,
    NonCommuting,
    NotNilpotent,
    ZeroPoint,
)
from eamod.stream import CounterStream
from eamod import variety as vy

from oracles import (
    Pt,
    code,
    el,
    elements,
    entry,
    from_code,
    gen,
    one,
    rows_of,
    slow_combination,
    slow_commutant_rref,
    slow_jordan_mult,
    slow_projective_points,
    slow_rref,
    zero,
)

F3 = field_create(3, 1)
F9 = field_create(3, 2)


def zero_module(p, k, field):
    """The dimension-0 module of rank k."""
    return EAModule(p, k, field, [MatF.zeros(field, 0, 0)] * k, 0)


def benson(field, lam, mu):
    x1 = MatF.from_rows(field, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    x2 = MatF.from_rows(field, [[0, 0, 0], [lam, 0, 0], [mu, lam, 0]])
    return EAModule(3, 2, field, [x1, x2])


def test_validate_accepts_benson():
    for lam in range(3):
        for mu in range(3):
            mr.validate(benson(F3, lam, mu))


def test_validate_rejects_noncommuting():
    j2 = MatF.from_rows(F3, [[0, 0], [1, 0]])
    with pytest.raises(NonCommuting) as err:
        mr.validate(EAModule(3, 2, F3, [j2, j2.transpose()]))
    assert (err.value.i, err.value.j) == (1, 2)


def test_validate_rejects_nonnilpotent():
    bad = MatF.identity(F3, 2)
    with pytest.raises(NotNilpotent):
        mr.validate(EAModule(3, 1, F3, [bad]))


@pytest.mark.parametrize("field", [F3, F9], ids=["F3", "F9"])
def test_points_of_a_module_without_its_relations_are_refused(monkeypatch, field):
    # E21 and E32 do not commute, yet every combination is strictly lower
    # triangular, so every X_alpha is nilpotent and typed without complaint
    # but for the module's proof.  diag(1, 1, 0) is not nilpotent, yet at
    # p = 3 its rank 2 = n(p-1)/p would pass it as free in phase one.  Both
    # are refused before any elimination
    def refuse(*args, **kwargs):
        raise AssertionError("an elimination ran before the module was validated")

    e21 = MatF.from_rows(field, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    e32 = MatF.from_rows(field, [[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    diagonal = MatF.from_rows(field, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    non_commuting = EAModule(3, 2, field, [e21, e32])
    non_nilpotent = EAModule(3, 1, field, [diagonal])
    monkeypatch.setattr(linalg, "_eliminate", refuse)
    for module, error in ((non_commuting, NonCommuting), (non_nilpotent, NotNilpotent)):
        with pytest.raises(error):
            vy.variety_points(module, field)
        with pytest.raises(error):
            mr.point_jordan_type(module, [1] * module.k)
        assert not module.proven


def test_validate_proves_and_constructions_pass_the_proof_on():
    mod = benson(F9, 1, 2)
    assert not mod.proven and mr.validate(mod) is mod and mod.proven
    assert mr.lift_to_extension(mod, field_create(3, 4)).proven
    assert mr.direct_sum(mod, mod).proven
    assert not mr.direct_sum(mod, benson(F9, 1, 2)).proven
    assert not mr.tensor(mod, mod).proven and not mr.dual(mod).proven
    assert sr.d_r(sr.SymContext(3, 3), F9, 1).proven
    assert mod == benson(F9, 1, 2)  # equality ignores the proof
    split = mr.fitting_decompose(mr.direct_sum(mod, mod), 60, 7)
    assert split.decomposed and all(part.proven for part in split.summands)


def test_validate_zero_module():
    mod = zero_module(3, 2, F3)
    mr.validate(mod)
    assert mod.n == 0
    assert mr.projective_test(mod) == (True, 0)
    assert mr.is_free_at(mod, [1, 0])
    with pytest.raises(ZeroPoint):
        mr.is_free_at(mod, [0, 0])


@pytest.mark.parametrize("field", [F3, F9], ids=["F3", "F9"])
def test_zero_module_file_roundtrip(field):
    mod = zero_module(3, 2, field)
    raw = json.loads(json.dumps(mod.to_dict()))
    assert EAModule.from_dict(raw) == mod
    for bad in ([[]], [0], [[[]]]):
        with pytest.raises(ValueError, match="wrong shape"):
            EAModule.from_dict(dict(raw, generators=[bad, []]))


@pytest.mark.parametrize("field", [F3, F9], ids=["F3", "F9"])
def test_rank_zero_module_file_keeps_dimension(field):
    # no generators carry the size, so only the file's dim can
    mod = EAModule(3, 0, field, [], dim=2)
    loaded = EAModule.from_dict(json.loads(json.dumps(mod.to_dict())))
    assert loaded.n == 2
    assert loaded.to_dict() == mod.to_dict()


@pytest.mark.parametrize("p,k,m,r", [(3, 3, 3, 2), (5, 2, 2, 4)], ids=["d2-f27", "d4-f25"])
def test_jordan_types_at_ignores_the_stack_split(monkeypatch, p, k, m, r):
    field = field_create(p, m)
    module = sr.d_r(sr.SymContext(p, k), field, r)
    coords = field.from_codes(vy.projective_codes(field, k))
    count = len(coords)
    expected = mr.jordan_types_at(module, coords)
    non_free = sum(not t.is_free() for t in expected)
    ranks, ones, twos = mr._ranks, [], []  # the stack sizes of phases one and two

    def ranked(ctx, work):
        ones.append(len(work))
        return ranks(ctx, work)

    def recorded(ctx, stack, prime, rank_n):
        twos.append(len(stack))
        return _jordan_types(ctx, stack, prime, rank_n)

    def split(total, step):
        return [step] * (total // step) + [total % step] * (total % step > 0)

    monkeypatch.setattr(mr, "_ranks", ranked)
    monkeypatch.setattr(mr, "_jordan_types", recorded)
    # p divides n, so phase one runs; five points a stack leave a short last one
    assert module.n % p == 0 and count % 5 and 0 < non_free < count
    for budget in (1, 5 * mr._point_bytes(field, module.n)):
        monkeypatch.setattr(mr, "STACK_BYTES", budget)
        ones.clear()
        twos.clear()
        assert mr.jordan_types_at(module, coords) == expected
        assert ones == split(count, max(1, budget // mr._point_bytes(field, module.n, False)))
        assert twos == split(non_free, max(1, budget // mr._point_bytes(field, module.n)))


def test_stack_budget():
    # the 53 orbit representatives of D(2) at (3, 3) over F_27 take one
    # phase-one stack; a point of D(4) at (5, 3) over F_25 (dim 715) or
    # of D(6) at (7, 2) over F_49 (dim 924) takes a stack alone in phase two
    assert mr.STACK_BYTES // mr._point_bytes(field_create(3, 3), 21, False) >= 53
    assert mr._point_bytes(field_create(5, 2), 715) > mr.STACK_BYTES
    assert mr._point_bytes(field_create(7, 2), 924) > mr.STACK_BYTES


@pytest.mark.parametrize("p,k,m,count", [(3, 4, 2, 16), (3, 3, 3, 33)], ids=["d2-f9-k4", "d2-f27-k3"])
def test_phase_two_stacks_stay_in_the_budget(monkeypatch, p, k, m, count):
    # a full phase-two stack of D(2), less what the call holds when its
    # first stack starts (the generators' planes), peaks under STACK_BYTES:
    # N's planes and the expansion in expand, whose float_mod quotient is
    # one fixed block.  Charging the expansion once, or holding the last
    # phase-one stack through phase two, passes the budget by about half
    # at both
    field = field_create(p, m)
    module = sr.d_r(sr.SymContext(p, k), field, 2)
    coords = field.from_codes(vy.projective_codes(field, k))
    coords = coords[[not t.is_free() for t in mr.jordan_types_at(module, coords)]]
    # over F_27 the 31 non-free points, two of them twice, fill one stack
    coords = coords[np.arange(count) % len(coords)]
    assert count >= mr.STACK_BYTES // mr._point_bytes(field, module.n)
    held, combine = [], mr.combine

    def first(*args):
        if not held:
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
        return combine(*args)

    monkeypatch.setattr(mr, "combine", first)
    tracemalloc.start()
    try:
        mr.jordan_types_at(module, coords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held[0] < mr.STACK_BYTES


def test_jordan_types_at_lays_out_the_generators_once(monkeypatch):
    # one point a stack: every stack of both phases combines the one
    # generator stack, which combine takes as it is (its planes are
    # C-contiguous in the product dtype, so reshape and cast are views)
    field = F9
    module = sr.d_r(sr.SymContext(3, 3), field, 2)
    coords = field.from_codes(vy.projective_codes(field, 3))
    expected = mr.jordan_types_at(module, coords)
    non_free = sum(not t.is_free() for t in expected)
    layouts, stacks = [], []
    gen_stack, combine = mr._gen_stack, mr.combine

    def laying(mod):
        layouts.append(mod)
        return gen_stack(mod)

    def combining(ctx, coeffs, mats):
        stacks.append(mats)
        return combine(ctx, coeffs, mats)

    monkeypatch.setattr(mr, "STACK_BYTES", 1)
    monkeypatch.setattr(mr, "_gen_stack", laying)
    monkeypatch.setattr(mr, "combine", combining)
    assert mr.jordan_types_at(module, coords) == expected
    assert module.n % 3 == 0 and 0 < non_free < len(coords)
    assert len(layouts) == 1 and len(stacks) == len(coords) + non_free
    gens = stacks[0]
    assert all(mats is gens for mats in stacks)
    assert gens.transpose(0, 3, 1, 2).flags.c_contiguous and gens.dtype == linalg.product_dtype(field, 3)


def test_sweep_work_counts(monkeypatch):
    # D(2) at (3, 3) over F_27, the benchmark's sweep: rank N at the 53 orbit
    # representatives is one elimination, 48 of them are free by it, and only
    # the other 5 are expanded and take their powers to a second elimination.
    # Every point formed its expansion and all its powers when the N^p = 0
    # check ran at each, and the two stacks took two eliminations each
    field = field_create(3, 3)
    module = sr.d_r(sr.SymContext(3, 3), field, 2)
    expected = vy.variety_points(module, field).to_dict()
    ranks, stacks, counts = mr._ranks, [], {"eliminate": 0, "validate": 0}
    eliminate, validate = linalg._eliminate, mr.validate

    def ranked(ctx, work):
        stacks.append(("ranks of N", len(work)))
        return ranks(ctx, work)

    def recorded(ctx, stack, prime, rank_n):
        stacks.append(("powers", len(stack)))
        return _jordan_types(ctx, stack, prime, rank_n)

    def counted_eliminate(*args, **kwargs):
        counts["eliminate"] += 1
        return eliminate(*args, **kwargs)

    def counted_validate(mod):
        counts["validate"] += 1
        return validate(mod)

    monkeypatch.setattr(mr, "_ranks", ranked)
    monkeypatch.setattr(mr, "_jordan_types", recorded)
    monkeypatch.setattr(linalg, "_eliminate", counted_eliminate)
    monkeypatch.setattr(mr, "validate", counted_validate)
    assert vy.variety_points(module, field).to_dict() == expected
    assert stacks == [("ranks of N", 53), ("powers", 5)]
    assert counts == {"eliminate": 2, "validate": 0}  # d_r's module is proven
    # a copy that proves nothing is validated at its first sweep only
    bare = EAModule(module.p, module.k, field, module.gens, symmetry=module.symmetry)
    for _ in range(2):
        assert vy.variety_points(bare, field).to_dict() == expected
    assert counts == {"eliminate": 6, "validate": 1} and bare.proven


def test_x_alpha_unit_vector_and_shape():
    mod = benson(F3, 2, 1)
    assert mr.x_alpha(mod, [1, 0]) == mod.gens[0]
    # displayed form: subdiagonal a1 + a2*lam, corner a2*mu
    a1, a2 = el(F3, 1), el(F3, 2)
    xa = mr.x_alpha(mod, [a1, a2])
    sub = a1 + a2 * el(F3, 2)
    assert entry(xa, 1, 0) == sub and entry(xa, 2, 1) == sub
    assert entry(xa, 2, 0) == a2 * el(F3, 1)
    assert entry(xa, 0, 0) == zero(F3) and entry(xa, 0, 1) == zero(F3)


def test_x_alpha_zero_point_rejected():
    with pytest.raises(ZeroPoint):
        mr.x_alpha(benson(F3, 0, 0), [0, 0])


def test_point_coordinates_need_the_fields_coefficient_count():
    # coefficient vectors carry no field, so a coordinate over F_27 is
    # refused by its length at a module over F_9
    mod = benson(F9, 1, 1)
    u = gen(field_create(3, 3))
    for alpha in ([u, 1], [u, u], [[1, 0, 0], 1]):
        with pytest.raises(ValueError, match="expected 2 coefficients per element"):
            mr.point_jordan_type(mod, alpha)
    with pytest.raises(ValueError, match="point has 3 coordinates"):
        mr.point_jordan_type(mod, [1, gen(F9), 0])


def test_point_jordan_type_trivial_module():
    triv = mr.trivial_module(3, 2, F3)
    assert mr.point_jordan_type(triv, [1, 2]) == JordanType.from_blocks(3, [1])


def test_is_free_examples():
    triv = mr.trivial_module(3, 2, F3)
    assert not mr.is_free_at(triv, [1, 0])  # dim 1 not divisible by 3
    reg = mr.regular_module(3, 2, F3)
    assert mr.is_free_at(reg, [1, 0])
    with pytest.raises(ZeroPoint):
        mr.is_free_at(reg, [0, 0])


def test_variety_of_benson_is_line():
    # line through (-lam, 1)
    for lam in range(3):
        mod = benson(F3, lam, 1)
        assert not mr.is_free_at(mod, [(-lam) % 3, 1])
        for a in range(3):
            for b in range(3):
                if (a, b) == (0, 0):
                    continue
                on_line = (a + b * lam) % 3 == 0
                assert (not mr.is_free_at(mod, [a, b])) == on_line


def test_direct_sum_and_tensor_dims():
    m1 = benson(F3, 0, 1)
    m2 = mr.trivial_module(3, 2, F3)
    assert mr.direct_sum(m1, m2).n == 4
    assert mr.tensor(m1, m1).n == 9


def test_tensor_unit():
    mod = benson(F3, 1, 2)
    unit = mr.trivial_module(3, 2, F3)
    assert all(a == b for a, b in zip(mr.tensor(unit, mod).gens, mod.gens))


def test_context_mismatch():
    with pytest.raises(MismatchedContext):
        mr.direct_sum(benson(F3, 0, 1), benson(F9, 0, 1))


def test_dual_preserves_freeness_and_maximal_types():
    # Freeness at a point survives dualizing at every point; the full
    # Jordan type survives wherever the point attains the free type.
    # (Type equality can fail at degenerate points: benson(w+2, 0) at
    # (2w+1, 1) has X_alpha = 0 but the dual generators retain a
    # square term of rank 1.)
    stream = CounterStream(4242)
    for trial in range(50):
        lam = from_code(F9, stream.below(9))
        mu = from_code(F9, stream.below(9))
        mod = benson(F9, lam, mu)
        if trial % 2:
            mod = mr.tensor(mod, mod)
        dual_mod = mr.dual(mod)
        mr.validate(dual_mod)
        coords = [from_code(F9, stream.below(9)) for _ in range(2)]
        if not any(coords):
            coords[0] = one(F9)
        assert mr.is_free_at(dual_mod, coords) == mr.is_free_at(mod, coords)
        if mr.is_free_at(mod, coords):
            assert mr.point_jordan_type(dual_mod, coords) == mr.point_jordan_type(mod, coords)


def test_dual_type_mismatch_at_degenerate_point():
    w = gen(F9)
    mod = benson(F9, w + 2, 0)
    dual_mod = mr.dual(mod)
    alpha = [2 * w + 1, one(F9)]
    assert mr.x_alpha(mod, alpha).is_zero()
    assert mr.point_jordan_type(mod, alpha) == JordanType.from_blocks(3, [1, 1, 1])
    assert mr.point_jordan_type(dual_mod, alpha) == JordanType.from_blocks(3, [2, 1])


def test_wedge_dimensions_and_unit():
    mod = benson(F3, 0, 1)
    assert mr.wedge(mod, 0).n == 1
    assert mr.wedge(mod, 2).n == 3
    assert mr.wedge(mod, 3).n == 1
    for w in (mr.wedge(mod, 2), mr.wedge(mod, 3)):
        mr.validate(w)


def test_wedge_jordan_examples():
    assert mr.wedge_jordan(JordanType.from_blocks(3, [2, 2]), 2, 3) == JordanType.from_blocks(
        3, [3, 1, 1, 1]
    )
    assert mr.wedge_jordan(JordanType.from_blocks(3, [1]), 1, 3) == JordanType.from_blocks(3, [1])
    # wedge of a free type at r = p-1 stays free
    free = JordanType.from_blocks(3, [3, 3])
    result = mr.wedge_jordan(free, 2, 3)
    assert result.is_free()
    assert result.total == math.comb(6, 2)


def test_restrict_examples():
    mod = benson(F3, 0, 1)
    res = mr.restrict_to_subgroup(mod, [[0, 1]])
    assert res.k == 1
    assert mr.point_jordan_type(res, [1]) == JordanType.from_blocks(3, [2, 1])
    full = mr.restrict_to_subgroup(mod, [[1, 0], [0, 1]])
    assert all(a == b for a, b in zip(full.gens, mod.gens))
    reg = mr.regular_module(3, 2, F3)
    line = mr.restrict_to_subgroup(reg, [[1, 1]])
    assert mr.point_jordan_type(line, [1]) == JordanType.from_blocks(3, [3, 3, 3])
    with pytest.raises(DependentGenerators):
        mr.restrict_to_subgroup(mod, [[1, 1], [2, 2]])


def test_induce_diagonal_line():
    ind = mr.induce(mr.trivial_module(3, 1, F3), [[1, 1]])
    mr.validate(ind)
    assert ind.n == 3
    for a in range(3):
        for b in range(3):
            if (a, b) == (0, 0):
                continue
            assert (not mr.is_free_at(ind, [a, b])) == (a == b)


def test_induce_full_rank_is_identity_functor():
    ind = mr.induce(mr.trivial_module(3, 2, F3), [[1, 0], [0, 1]])
    assert ind.n == 1
    assert all(g.is_zero() for g in ind.gens)


def test_induce_from_trivial_subgroup_is_regular():
    ind = mr.induce(mr.trivial_module(3, 0, F3), [], ambient_rank=2)
    assert ind.n == 9
    assert mr.projective_test(ind) == (True, 1)


def test_induce_dependent_vectors():
    with pytest.raises(DependentGenerators):
        mr.induce(mr.trivial_module(3, 2, F3), [[1, 1], [2, 2]])


def test_induced_variety_inside_embed_span():
    # rank-1 subgroup of E_3: variety of the induced module stays in the span
    ind = mr.induce(mr.trivial_module(3, 1, F3), [[1, 2, 0]])
    for a in range(3):
        for b in range(3):
            for c in range(3):
                if (a, b, c) == (0, 0, 0):
                    continue
                if not mr.is_free_at(ind, [a, b, c]):
                    in_span = any(
                        (a, b, c) == ((t * 1) % 3, (t * 2) % 3, 0) for t in range(1, 3)
                    )
                    assert in_span


def test_induced_nontrivial_variety_inside_embed_span_extension():
    # non-trivial source module, sweep over F_9: variety stays in the
    # field-span of the embed vector
    j2 = EAModule(3, 1, F9, [MatF.from_rows(F9, [[0, 0], [1, 0]])])
    ind = mr.induce(j2, [[1, 2]])
    mr.validate(ind)
    assert ind.n == 6
    span = set()
    for t in elements(F9):
        if t:
            span.add(Pt((t * 1, t * 2)).normalize().codes())
    els = elements(F9)
    for a in els:
        for b in els:
            pt = Pt((a, b))
            if not (a or b):
                continue
            if not mr.is_free_at(ind, pt):
                assert pt.normalize().codes() in span


def test_linear_variety_module_examples():
    mod = mr.linear_variety_module(3, 2, F3, [[1, 1]])
    assert mod.n == 3
    pts = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    assert {pt for pt in pts if not mr.is_free_at(mod, pt)} == {(1, 1), (2, 2)}
    full = mr.linear_variety_module(3, 2, F3, [[1, 0], [0, 1]])
    assert full.n == 1
    assert not any(mr.is_free_at(full, pt) for pt in pts)
    reg = mr.linear_variety_module(3, 2, F3, [])
    assert reg.n == 9
    assert all(mr.is_free_at(reg, pt) for pt in pts)
    with pytest.raises(DependentGenerators):
        mr.linear_variety_module(3, 2, F3, [[1, 1], [2, 2]])


def _digits(p, t, index):
    """The t base-p digits of a basis index, most significant first."""
    return tuple(index // p ** (t - 1 - j) % p for j in range(t))


def _moves(p, t, target):
    """The 0/1 matrix sending basis vector v to target(v), or to 0 where target(v) is None."""
    out = np.zeros((p ** t, p ** t), dtype=np.int64)
    for col in range(p ** t):
        moved = target(_digits(p, t, col))
        if moved is not None:
            out[sum(d * p ** (t - 1 - j) for j, d in enumerate(moved)), col] = 1
    return out


def _complement_coords(p, embed, complement, i):
    """The b with e_i = sum a_j w_j + sum b_j e_(c_j) for some a, by search over F_p."""
    k, s = len(embed) + len(complement), len(embed)
    for ab in product(range(p), repeat=k):
        vec = [sum(a * w[r] for a, w in zip(ab, embed)) for r in range(k)]
        for c, b in zip(complement, ab[s:]):
            vec[c] += b
        if [x % p for x in vec] == [int(r == i) for r in range(k)]:
            return ab[s:]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_shift_and_translation_matrices_act_on_digits(p):
    """X_ell of the regular module moves digits v to v + e_ell (0 past p - 1); u_i of an
    induced trivial module moves them to v + b_i, with b_i from _complement_coords."""
    field = field_create(p, 1)
    for t in range(4):
        for ell, x in enumerate(mr.regular_module(p, t, field).gens):
            def step(v):
                return None if v[ell] == p - 1 else v[:ell] + (v[ell] + 1,) + v[ell + 1:]

            assert np.array_equal(x.data[:, :, 0], _moves(p, t, step))
    for k, embed in [(2, [[1, 1]]), (2, [[0, 1]]), (3, [[1, 2, 0]]), (3, [[1, 1, 1], [0, 1, 2]]), (3, [])]:
        embed = [[c % p for c in w] for w in embed]
        ind = mr.induce(mr.trivial_module(p, len(embed), field), embed, ambient_rank=k)
        pivots = slow_rref([[el(field, c) for c in w] for w in embed])[1]
        complement = [j for j in range(k) if j not in pivots]
        eye = MatF.identity(field, ind.n)
        for i, x in enumerate(ind.gens):
            b = _complement_coords(p, embed, complement, i)
            moved = _moves(p, len(complement), lambda v: tuple((d + e) % p for d, e in zip(v, b)))
            assert np.array_equal((x + eye).data[:, :, 0], moved)


def test_projective_test_examples():
    reg = mr.regular_module(3, 2, F3)
    assert mr.projective_test(reg) == (True, 1)
    both = mr.direct_sum(reg, reg)
    assert mr.projective_test(both) == (True, 2)


def test_endomorphism_basis_examples():
    triv = mr.trivial_module(3, 1, F3)
    basis = mr.endomorphism_basis(triv)
    assert len(basis) == 1 and basis[0] == MatF.identity(F3, 1)
    j2 = EAModule(3, 1, F3, [MatF.from_rows(F3, [[0, 0], [1, 0]])])
    assert len(mr.endomorphism_basis(j2)) == 2
    ff = mr.direct_sum(triv, triv)
    basis4 = mr.endomorphism_basis(ff)
    assert len(basis4) == 4
    assert any(b == MatF.identity(F3, 2) for b in basis4)
    # every basis element commutes with every generator
    for mod in (j2, ff):
        for b in mr.endomorphism_basis(mod):
            for x in mod.gens:
                assert b @ x == x @ b


def canonical_commutant(mod):
    """[I] + rows 1.. of the oracle's RREF of the commutant, as matrices."""
    n, field = mod.n, mod.field
    rows = slow_commutant_rref([rows_of(x) for x in mod.gens])
    assert rows[0][0] == 1
    return [MatF.identity(field, n)] + [
        MatF.from_rows(field, [row[i * n : (i + 1) * n] for i in range(n)]) for row in rows[1:]
    ]


def conjugate(mod, c):
    """The module with generators c X c^-1."""
    inv = c.inv()
    return EAModule(mod.p, mod.k, mod.field, [c @ x @ inv for x in mod.gens])


def test_endomorphism_basis_is_canonical():
    # the basis is the identity and rows 1.. of the RREF of the flattened
    # commutant, whatever basis the module is written in
    w = gen(F9)
    j2 = EAModule(3, 1, F3, [MatF.from_rows(F3, [[0, 0], [1, 0]])])

    def conj(mod, rows):
        return conjugate(mod, MatF.from_rows(mod.field, rows))

    modules = [
        j2,
        mr.direct_sum(mr.trivial_module(3, 1, F3), j2),
        benson(F9, w, 1),
        mr.direct_sum(benson(F9, w + 1, w), mr.trivial_module(3, 2, F9)),
        conj(j2, [[1, 1], [1, 2]]),
        conj(mr.direct_sum(j2, mr.trivial_module(3, 1, F3)), [[1, 1, 0], [0, 1, 1], [1, 0, 1]]),
        conj(benson(F9, w, 1), [[1, w, 0], [0, 1, 1], [1, 0, w]]),
    ]
    for mod in modules:
        assert mr.endomorphism_basis(mod) == canonical_commutant(mod)


@st.composite
def small_modules(draw):
    """A sum of one or two small pieces over F_2, F_3, F_4, F_9 or F_25, maybe conjugated."""
    field = draw(st.sampled_from([field_create(2, 1), F3, field_create(2, 2), F9, field_create(5, 2)]))
    p = field.p
    k = draw(st.sampled_from([1, 2]))
    pieces = []
    for _ in range(draw(st.integers(1, 2))):
        if k == 1:
            size = draw(st.integers(1, min(p, 3)))
            pieces.append(EAModule(p, 1, field, [canonical_nilpotent(field, JordanType.from_blocks(p, [size]))]))
        elif p == 3 and draw(st.booleans()):
            lam, mu = (field.from_code(draw(st.integers(0, field.q - 1))) for _ in range(2))
            pieces.append(benson(field, lam, mu))
        elif p == 2 and draw(st.booleans()):
            codes = draw(st.tuples(st.integers(0, field.q - 1), st.integers(0, field.q - 1)).filter(any))
            pieces.append(mr.linear_variety_module(p, 2, field, [[field.from_code(c) for c in codes]]))
        else:
            pieces.append(mr.trivial_module(p, 2, field))
    mod = pieces[0]
    for piece in pieces[1:]:
        mod = mr.direct_sum(mod, piece)
    if draw(st.booleans()):
        codes = draw(st.lists(st.integers(0, field.q - 1), min_size=mod.n ** 2, max_size=mod.n ** 2))
        c = MatF.from_rows(field, [[field.from_code(codes[i * mod.n + j]) for j in range(mod.n)]
                                   for i in range(mod.n)])
        assume(c.rank() == mod.n)
        mod = conjugate(mod, c)
    return mod


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(small_modules())
def test_endomorphism_basis_matches_oracle_property(mod):
    assert mr.endomorphism_basis(mod) == canonical_commutant(mod)


def test_fitting_decompose_splits_j1_plus_j2():
    j2 = EAModule(3, 1, F3, [MatF.from_rows(F3, [[0, 0], [1, 0]])])
    mod = mr.direct_sum(mr.trivial_module(3, 1, F3), j2)
    result = mr.fitting_decompose(mod, trials=20, seed=7)
    assert result.status == "decomposed"
    assert sorted(s.n for s in result.summands) == [1, 2]
    for s in result.summands:
        mr.validate(s)


def test_fitting_decompose_rank_zero_module():
    # with no generators every matrix commutes, and the pieces keep their dimensions
    mod = EAModule(3, 0, F3, [], dim=2)
    assert len(mr.endomorphism_basis(mod)) == 4
    result = mr.fitting_decompose(mod, trials=20, seed=7)
    assert result.status == "decomposed" and [s.n for s in result.summands] == [1, 1]


def test_rank_zero_constructions_keep_their_dimension():
    # no generators carry the size, so each construction passes it on
    mod = EAModule(3, 0, F3, [], dim=2)
    assert mr.direct_sum(mod, mod).n == 4 and mr.tensor(mod, mod).n == 4
    assert mr.dual(mod).n == 2 and mr.wedge(mod, 1).n == 2 and mr.wedge(mod, 2).n == 1
    assert mr.lift_to_extension(mod, F9).n == 2
    assert mr.induce(mr.trivial_module(3, 0, F3), [], ambient_rank=0).n == 1
    assert zero_module(3, 0, F3).n == 0 and mr.regular_module(3, 0, F3).n == 1
    with pytest.raises(ValueError, match="needs its dim"):
        EAModule(3, 0, F3, [])
    # a rank-0 module has no points to sample
    with pytest.raises(BadParams, match="got k = 0"):
        vy.generic_type(mod)


def test_fitting_summands_recombine_pointwise():
    mod = mr.direct_sum(benson(F3, 0, 1), mr.trivial_module(3, 2, F3))
    result = mr.fitting_decompose(mod, trials=30, seed=3)
    assert sum(s.n for s in result.summands) == mod.n
    recombined = result.summands[0]
    for s in result.summands[1:]:
        recombined = mr.direct_sum(recombined, s)
    for a in range(3):
        for b in range(3):
            if (a, b) == (0, 0):
                continue
            assert mr.point_jordan_type(recombined, [a, b]) == mr.point_jordan_type(mod, [a, b])


def test_fitting_deterministic():
    mod = mr.direct_sum(benson(F3, 0, 1), benson(F3, 1, 1))
    r1 = mr.fitting_decompose(mod, trials=25, seed=5)
    r2 = mr.fitting_decompose(mod, trials=25, seed=5)
    assert [s.gens for s in r1.summands] == [s.gens for s in r2.summands]


def restrict_matrix(mat):
    """A matrix over F_{p^m} viewed over F_p: every entry becomes the
    m x m matrix of multiplication by it in the basis 1, w, ..., w^{m-1}."""
    field = mat.ctx
    n, m = mat.rows, field.m
    units = [tuple(int(t == c) for t in range(m)) for c in range(m)]
    big = np.zeros((n * m, n * m, 1), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            for c, unit in enumerate(units):
                big[i * m : (i + 1) * m, j * m + c, 0] = entry(mat, i, j) * el(field, unit)
    return MatF(field_create(field.p, 1), big)


def restrict_scalars(module):
    """The module over F_{p^m} viewed over F_p."""
    gens = [restrict_matrix(g) for g in module.gens]
    return EAModule(module.p, module.k, gens[0].ctx, gens)


def restricted_line(p, c):
    """The line module through (1, w + c) over F_{p^2}, viewed over F_p."""
    big = field_create(p, 2)
    return restrict_scalars(mr.linear_variety_module(p, 2, big, [[1, gen(big) + c]]))


@pytest.mark.parametrize("p", [3, 2])
def test_fitting_splits_restricted_lines(p):
    # End/J of each summand is F_{p^2}, so most eigenvalues of theta lie
    # outside F_p; for p = 2 the two lines are Galois conjugate, the
    # summands are isomorphic and End/J is M_2(F_4)
    a = restricted_line(p, 0)
    b = restricted_line(p, 1)
    result = mr.fitting_decompose(mr.direct_sum(a, b), trials=60, seed=7)
    assert result.status == "decomposed"
    assert sorted(s.n for s in result.summands) == [2 * p, 2 * p]
    for s in result.summands:
        mr.validate(s)


@pytest.mark.parametrize("p", [3, 2])
def test_fitting_keeps_restricted_line_whole(p):
    result = mr.fitting_decompose(restricted_line(p, 0), trials=30, seed=7)
    assert result.status == "no_split_found" and [s.n for s in result.summands] == [2 * p]


@pytest.mark.parametrize("p", [3, 2])
def test_fitting_splits_rational_line_off_restricted_line(p):
    rational = mr.linear_variety_module(p, 2, field_create(p, 1), [[1, 0]])
    mod = mr.direct_sum(rational, restricted_line(p, 0))
    result = mr.fitting_decompose(mod, trials=60, seed=7)
    assert result.status == "decomposed"
    assert sorted(s.n for s in result.summands) == [p, 2 * p]


class CountingStream(CounterStream):
    """A CounterStream that counts its draws."""

    draws = 0

    def below(self, bound):
        self.draws += 1
        return super().below(bound)


def radical_square_zero(field):
    """F[x, y]/(x, y)^2 at p = 3, basis 1, x, y: cyclic, socle spanned by x and y."""
    x = MatF.from_rows(field, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    y = MatF.from_rows(field, [[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    return EAModule(3, 2, field, [x, y])


# modules with a 1-dimensional top or socle, and their (dim top, dim socle);
# each has a commutant of dimension 3, so trials would draw
CERTIFIED = {
    "line": (lambda: mr.linear_variety_module(3, 2, F9, [[1, gen(F9)]]), (1, 1)),
    "jordan-block": (lambda: EAModule(3, 1, F3, [canonical_nilpotent(F3, JordanType.from_blocks(3, [3]))]),
                     (1, 1)),
    "cyclic": (lambda: radical_square_zero(F3), (1, 2)),
    "dual-of-cyclic": (lambda: mr.dual(radical_square_zero(F3)), (2, 1)),
}


@pytest.mark.parametrize("name", list(CERTIFIED))
def test_simple_top_or_socle_is_certified_without_trials(monkeypatch, name):
    build, top_socle = CERTIFIED[name]
    mod = build()
    assert mr._top_and_socle(mod) == top_socle

    def refuse(module):
        raise AssertionError("commutant computed for a certified module")

    monkeypatch.setattr(mr, "endomorphism_basis", refuse)
    stream = CountingStream(7)
    assert mr._try_split(mod, 60, stream) is None and stream.draws == 0
    result = mr.fitting_decompose(mod)
    assert result.status == "no_split_found" and result.summands == [mod]


@pytest.mark.parametrize("p", [3, 2])
def test_restricted_line_goes_through_trials(monkeypatch, p):
    mod = restricted_line(p, 0)
    assert mr._top_and_socle(mod) == (2, 2)
    calls = []
    basis_of = mr.endomorphism_basis

    def recording(module):
        calls.append(module)
        return basis_of(module)

    monkeypatch.setattr(mr, "endomorphism_basis", recording)
    stream = CountingStream(7)
    assert mr._try_split(mod, 5, stream) is None
    assert calls == [mod] and stream.draws == 5 * len(basis_of(mod)) > 0


THETA_MODULES = {
    "restricted-line": lambda: restricted_line(3, 0),
    "two-lines-f9": lambda: vy.dv_rank2_builder(3, F9, [[1, 0], [1, gen(F9)]]),
    "two-lines-f8": lambda: vy.dv_rank2_builder(2, field_create(2, 3), [[1, 0], [0, 1]]),
}


@pytest.mark.parametrize("name", list(THETA_MODULES))
def test_theta_is_the_combination_of_its_draws(monkeypatch, name):
    """Each theta is sum_b c_b B_b, one stream.below(q) per basis element in order."""
    mod = THETA_MODULES[name]()
    basis = mr.endomorphism_basis(mod)
    assert len(basis) > 1
    thetas = []

    def recording(theta):
        thetas.append(theta)
        return None

    monkeypatch.setattr(mr, "_fitting_split", recording)
    assert mr._try_split(mod, 4, CounterStream(5)) is None
    field, stream = mod.field, CounterStream(5)

    def fel_rows(mat):
        return rows_of(mat)

    assert len(thetas) == 4
    for theta in thetas:
        draws = [from_code(field, stream.below(field.q)) for _ in basis]
        assert fel_rows(theta) == slow_combination(draws, [fel_rows(b) for b in basis])


def ten_line_sum():
    """The dim-30 sum of the ten lines of P^1(F_9), in its block basis."""
    elements = [F9.from_code(c) for c in range(9)]
    directions = [[elements[1], c] for c in elements] + [[elements[0], elements[1]]]
    return vy.dv_rank2_builder(3, F9, directions)


def dense_change():
    """A random change of basis of F_9^30 (numpy seed 1)."""
    return MatF(F9, np.random.default_rng(1).integers(0, 3, (30, 30, 2)))


def unitriangular_change():
    """A random lower unitriangular change of basis of F_9^30 (numpy seed 0)."""
    entries = np.random.default_rng(0).integers(0, 3, (30, 30, 2))
    entries *= np.tri(30, dtype=np.int64)[:, :, None]
    entries[np.arange(30), np.arange(30)] = [1, 0]
    return MatF(F9, entries)


def test_fitting_decompose_dense_ten_line_sum():
    # the ten lines of P^1(F_9) summed in a dense basis (a random change of
    # basis, numpy seed 1) split into the same lines as in the block basis
    block = ten_line_sum()
    dense = conjugate(block, dense_change())

    def dims_and_lines(result):
        assert result.status == "decomposed"
        return (sorted(s.n for s in result.summands),
                sorted(sorted(vy.variety_points(s, F9).variety_codes()) for s in result.summands))

    found = dims_and_lines(mr.fitting_decompose(dense, 60, 7))
    assert found == dims_and_lines(mr.fitting_decompose(block, 60, 7))
    assert found[0] == [3] * 10 and len({tuple(line) for line in found[1]}) == 10


@pytest.mark.parametrize("change,blocks,inside", [
    (lambda: MatF.identity(F9, 30), 1, False),
    (dense_change, 4, False),
    (unitriangular_change, 4, True),
], ids=["block", "dense", "unitriangular"])
def test_endomorphism_basis_over_several_blocks(monkeypatch, change, blocks, inside):
    # In the block basis the 260 nonzero relation rows fill one block of
    # t n = 300; in the dense basis 1 140 rows fill four, with every block
    # boundary between two relations, and in the unitriangular one 1 160
    # rows fill four, with every boundary inside a relation's rows.  The
    # blocks cut are the relation rows in order, and the commutant is
    # c End(M) c^-1 whatever the blocks.
    block = ten_line_sum()
    c = change()
    mod = conjugate(block, c)
    relations, cuts = [], []
    relation_rows, cut = mr._relation_rows, cm._cut

    def recording_rows(*args):
        for rows in relation_rows(*args):
            relations.append(rows.copy())
            yield rows

    def recording_cut(field, solutions, rows):
        cuts.append(rows.copy())
        return cut(field, solutions, rows)

    monkeypatch.setattr(mr, "_relation_rows", recording_rows)
    monkeypatch.setattr(cm, "_cut", recording_cut)
    basis = mr.endomorphism_basis(mod)
    width = len(mr._top_generators(mod)) * mod.n
    ends = np.cumsum([len(rows) for rows in relations])
    assert [len(rows) for rows in cuts] == [width] * (blocks - 1) + [ends[-1] - (blocks - 1) * width]
    assert np.array_equal(np.concatenate(cuts), np.concatenate(relations))
    assert all((b in ends) != inside for b in range(width, ends[-1], width))

    n, inv = mod.n, c.inv()
    flat = np.array([(c @ y @ inv).data.reshape(n * n, F9.m) for y in mr.endomorphism_basis(block)])
    reduced, pivots = MatF(F9, flat).rref()
    assert pivots[0] == 0
    assert basis == [MatF.identity(F9, n)] + [MatF(F9, row.reshape(n, n, F9.m)) for row in reduced.data[1:]]


@pytest.mark.parametrize("change", [None, dense_change], ids=["block", "dense"])
def test_endomorphism_basis_memory(change):
    # tracemalloc peaks of the commutant of the ten-line sum: 2.0 MB in
    # both bases, the returned list of 120 int64 matrices (1.7 MB) beside
    # the int8 stack it is read from.  They were 3.6 and 4.2 MB while z,
    # its reshape copy, the product and float_mod's quotient were held
    # whole and the solutions were int64, and 18.8 and 23.5 MB when the
    # whole relation system was built as one int64 tensor
    mod = ten_line_sum()
    if change is not None:
        mod = conjugate(mod, change())
    mr.endomorphism_basis(mod)  # field tables and pivot memos
    tracemalloc.start()
    try:
        mr.endomorphism_basis(mod)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


def top_and_socle_by_rank(mod):
    """n - rank [X_1 | ... | X_k] and n - rank of the X_i stacked, one MatF.rank each."""
    wide, tall = mr._wide_and_tall(mod)
    return mod.n - wide.rank(), mod.n - tall.rank()


def recorded_parts(monkeypatch, mod):
    """The (part, corner, top_socle) triples of every split of fitting_decompose(mod, 60, 7), in order."""
    parts = []
    try_split = mr._try_split

    def recording(*args):
        split = try_split(*args)
        if split is not None:
            parts.extend(split)
        return split

    monkeypatch.setattr(mr, "_try_split", recording)
    mr.fitting_decompose(mod, 60, 7)
    return parts


# (module, largest part dim checked against the oracle).  The oracle's El
# elimination takes about 27 s on a dense dim-12 part and 3 s on a dim-10
# part of D(4), so dense parts stop at 6 and D(4)'s (10 and up) are checked
# against endomorphism_basis alone.  A single restricted line has no split,
# so the lines come in pairs, as in test_fitting_splits_restricted_lines.
CORNER_MODULES = {
    "ten-lines": (ten_line_sum, 12),
    "ten-lines-dense": (lambda: conjugate(ten_line_sum(), dense_change()), 6),
    "d4-5-2": (lambda: sr.d_r(sr.SymContext(5, 2), field_create(5, 1), 4), 0),
    "restricted-lines-2": (lambda: mr.direct_sum(restricted_line(2, 0), restricted_line(2, 1)), 12),
    "restricted-lines-3": (lambda: mr.direct_sum(restricted_line(3, 0), restricted_line(3, 1)), 12),
    "two-lines-f8": (THETA_MODULES["two-lines-f8"], 12),
    # parts with (dim top, dim socle) = (1, 2) and (2, 1)
    "cyclic-and-dual": (lambda: mr.direct_sum(radical_square_zero(F3), mr.dual(radical_square_zero(F3))), 12),
}


@pytest.mark.parametrize("name", list(CORNER_MODULES))
def test_corner_commutant_is_the_spun_one(monkeypatch, name):
    # every part's commutant, read off its parent's as corners, is the
    # basis endomorphism_basis spins for it, entry for entry, and for small
    # parts the oracle's; the dim-3 leaves, which never form theirs, too.
    # Every part's (dim top, dim socle), computed for the first part and
    # subtracted from the parent's for the second, is its own
    build, oracle_dim = CORNER_MODULES[name]
    parts = recorded_parts(monkeypatch, build())
    assert parts
    for part, corner, top_socle in parts:
        assert top_socle == mr._top_and_socle(part) == top_and_socle_by_rank(part)
        basis = cm._corner_basis(part.field, *corner)
        assert basis.dtype == elim_dtype(part.p, 0)
        corners = [MatF(part.field, y) for y in basis]
        assert corners == mr.endomorphism_basis(part)
        if part.n <= oracle_dim:
            assert corners == canonical_commutant(part)


def test_fitting_decompose_spins_one_commutant(monkeypatch):
    # the ten-line sum splits nine times and spins only its own commutant;
    # every theta is combined from a stack in the narrowest dtype
    mod = ten_line_sum()
    calls, dtypes = [], []
    basis_of, combine = mr.endomorphism_basis, mr.combine

    def recording(module):
        calls.append(module)
        return basis_of(module)

    def recording_combine(field, coeffs, mats):
        dtypes.append(mats.dtype)
        return combine(field, coeffs, mats)

    monkeypatch.setattr(mr, "endomorphism_basis", recording)
    monkeypatch.setattr(mr, "combine", recording_combine)
    result = mr.fitting_decompose(mod, 60, 7)
    assert calls == [mod] and [s.n for s in result.summands] == [3] * 10
    assert dtypes and set(dtypes) == {elim_dtype(3, 0)}


def test_fitting_decompose_memory():
    # tracemalloc peak of the whole decomposition of the ten-line sum: 2.0 MB,
    # its commutant's (test_endomorphism_basis_memory), where it was 3.6 MB
    # before the commutant's temporaries were bounded, 4.9 MB with the
    # commutant stacks in int64 (the dtype itself is
    # test_fitting_decompose_spins_one_commutant's check) and 4.3 MB when
    # every piece spun its own; the bound is test_endomorphism_basis_memory's
    mod = ten_line_sum()
    mr.fitting_decompose(mod, 60, 7)  # field tables and pivot memos
    tracemalloc.start()
    try:
        mr.fitting_decompose(mod, 60, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


# The summands of fitting_decompose(module, 60, 7): status, dims and the
# sha256 of each summand's generator bytes (int64, in order), recorded
# at 401fa76, before the top/socle inheritance, mat_pow's early exit and
# the N-first Jordan types; skipping determined work changes no byte
SUMMAND_MODULES = {
    "ten-lines": ten_line_sum,
    "ten-lines-dense": lambda: conjugate(ten_line_sum(), dense_change()),
    "d4-5-2": lambda: sr.d_r(sr.SymContext(5, 2), field_create(5, 1), 4),
    "two-lines-f8": THETA_MODULES["two-lines-f8"],
    "d2-3-2-f9": lambda: sr.d_r(sr.SymContext(3, 2), F9, 2),
}
SUMMAND_SHA256 = {
    "ten-lines": ("decomposed", [3, 3, 3, 3, 3, 3, 3, 3, 3, 3], [
        "29113e2ae35b1577566d35cae099b0a217b252d2c2ecfc80ca7ed84468120169",
        "61a1387b9471719c20305b4dab2fabda3fd109072d7ebac833cb9487bbacc6d6",
        "5965d63a90bbe7a72e6cf75ffd8a8cc9dca29e5cb9d967129ffaa003888c55a6",
        "fb6d7d23829bb8fd8ee3ba86e1ad68dafa4832913b060e7128d563c91daba006",
        "9389b9b6820566db51aecc46eb9ce123f5dafd9c0799b688644a165d6601640c",
        "bd5929c54af586f233a625c84f58f9c1d2655613b63c01dab32f1953d169682f",
        "91f37960597b9f2bd26d55560f042282393011970fef86bb22aeaf445ec3833e",
        "ff8c8760f85139ce992f579c79592cf141c490553c36a1be1195efc9bb5a776a",
        "1714f7c40068a86c58ee5800baad0fcb3271a43becd192abb6b870475d5cfeb4",
        "e604d5a2927071d6d4e9e05bd46eb1c6eead3f84dd6aa0346a06dd7241e82c43",
    ]),
    "ten-lines-dense": ("decomposed", [3, 3, 3, 3, 3, 3, 3, 3, 3, 3], [
        "63cdb91db33e4eca7a3a77f00cfa66d18671cb22f84693e1f166992b9a130bd7",
        "4602bd030d5c79d538b0ecf91d3b9ae9be5a10beaddbd1f636b25bba1d8f4249",
        "7c8976bab2f6a8b0b09645e567dc41fc866120843da0fbecf8fae1bbd29309cc",
        "23d3ac8d35bcce3db77daec8d3e3d6bd000372221053c51e871fc8d57b80e901",
        "72f873df3c4e7fb65e7df571d4bd8d037b4b826889a67c50c60bcb77f4bdfac6",
        "f96590958b5d7a29d0e8977f17f64d133ea7277d6d77c1a33f8ef3d83c8460ee",
        "e799ea30d8ce1286bddbd2f02f5b8200bd7a7064e22d937f8067b79720b6467e",
        "bda83ae71836c742ad3f68c18324559c90af1b3a5275db9946535313d20e77f1",
        "cc55e00f75fb9f935371d89cb73bf43b3379d2d05f7d7bdf2cccac9dd933b0e3",
        "937876cf2ddaeeb87ea7b4297ef232f2658edc29dd3d4f73d98c9a2a93cdd4c6",
    ]),
    "d4-5-2": ("decomposed", [25, 25, 10, 10], [
        "70142ebd700b231eeddd43299e365ba639aac0a759b010eb9bedc0011f640c06",
        "2c39121867592a9a1537bfa741eb84c7e7ea17219eba78cf75e43147c8d7e61a",
        "f934c6c390b65ae9004d807970b13b7911579187ebce9a806666b138e56bebf4",
        "35724d84477771e597d83eae9697dd17215b14f269d38fd7381e88abf952ef39",
    ]),
    "two-lines-f8": ("decomposed", [2, 2], [
        "8b520c06a75051273bea521a8f513a0804e78f90d3a075299057be715e215825",
        "c12cbd93ded74d83ec6a1f724260bc3a1b4d3c0be3fb1deaac70ce7e0fccea30",
    ]),
    "d2-3-2-f9": ("decomposed", [3, 3], [
        "0024c9f2579a1a90bd54937d465c2b13ea9b187f5afef3e316412aef83c45119",
        "b4d63ba23330b50ff9d4334065402894ddc4f4e9ef525e28b827462aec77af78",
    ]),
}


@pytest.mark.parametrize("name", list(SUMMAND_MODULES))
def test_fitting_summand_digests(name):
    result = mr.fitting_decompose(SUMMAND_MODULES[name](), 60, 7)
    digests = [hashlib.sha256(b"".join(g.data.tobytes() for g in s.gens)).hexdigest()
               for s in result.summands]
    assert (result.status, [s.n for s in result.summands], digests) == SUMMAND_SHA256[name]


# the scalar field arithmetic and coercions that arrays replaced; tests/oracles
# keeps its own, so none of these may come back to the package
SCALAR_NAMES = {
    FieldCtx: ("czero", "cone", "cadd", "csub", "cneg", "cmul", "cinv", "cpow", "el", "zero", "one",
               "gen", "elements", "code"),
    gf.Fel: ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
             "__truediv__", "__pow__", "inverse", "__bool__", "__eq__", "__hash__", "_coerce"),
    gf.Point: ("of", "k", "is_zero", "is_normalized", "normalize", "codes"),
}


def test_sweep_and_decomposition_run_no_python_field_arithmetic():
    # fields built fresh (no pivot table and no log tables yet): the variety
    # of D(2) at (3, 3) over F_27 against V(p_3), and the decomposition of
    # the ten-line sum, with no scalar arithmetic defined to run
    for owner, names in SCALAR_NAMES.items():
        assert [name for name in names if name in vars(owner)] == [], owner
    assert vars(gf.Fel)["__slots__"] == ("ctx", "coeffs")
    assert not {"zero_module"} & set(vars(mr)) and not {"get", "kernel_array"} & set(vars(MatF))
    f27 = FieldCtx(3, 3, field_create(3, 3).irr)
    report = vy.variety_points(sr.d_r(sr.SymContext(3, 3), f27, 2), f27)
    assert vy.compare_sets(report, vy.zero_points(sr.PkPoly(3, 3), f27), target_tag="pk") == "Equal"
    f9 = FieldCtx(3, 2, F9.irr)
    elements = [f9.from_code(c) for c in range(9)]
    lines = vy.dv_rank2_builder(3, f9, [[elements[1], c] for c in elements] + [[elements[0], elements[1]]])
    result = mr.fitting_decompose(lines, 60, 7)
    assert (result.status, [s.n for s in result.summands]) == ("decomposed", [3] * 10)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (5, 2)])
def test_completed_inverse_is_the_inverse_of_the_completion(monkeypatch, p, m):
    # one RREF of [rows | I_r] gives the inverse that completing the rows by
    # the standard vectors of their non-pivot columns and inverting gives
    field = field_create(p, m)
    rng = np.random.default_rng(p * 10 + m)
    eliminate, calls = linalg._eliminate, []

    def counted(*args, **kwargs):
        calls.append(1)
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    independent = 0
    for trial in range(30):
        k = int(rng.integers(1, 6))
        r = int(rng.integers(0, k + 1))
        # small codes make dependent sets common
        rows = [[field.from_code(int(c)) for c in rng.integers(0, field.q if trial % 3 else 2, k)]
                for _ in range(r)]
        rank = MatF.from_rows(field, rows).rank() if rows else 0
        if rank == r:
            pivots = MatF.from_rows(field, rows).rref()[1] if rows else []
            standard = [[int(i == j) for i in range(k)] for j in range(k) if j not in pivots]
            expected = MatF.from_rows(field, [list(v) for v in rows] + standard).inv()
        calls.clear()
        if rank < r:
            with pytest.raises(DependentGenerators, match="span vectors"):
                mr._completed_inverse(field, rows, k, "span")
        else:
            assert mr._completed_inverse(field, rows, k, "span") == expected
            independent += 1
        assert len(calls) == 1
    assert independent >= 10


def test_ten_line_sum_build_eliminates_once_a_line(monkeypatch):
    # each line's linear_variety_module completes and inverts its span in
    # one elimination; an RREF for the pivots and then an inverse took two
    eliminate, calls = linalg._eliminate, []

    def counted(*args, **kwargs):
        calls.append(1)
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    assert ten_line_sum().n == 30
    assert len(calls) == 10


def test_fitting_decompose_work_counts(monkeypatch):
    # building and decomposing the ten-line sum took 108 eliminations (20 of
    # them the build's) and 319 products when every piece's top and socle
    # were two ranks of their own, mat_pow multiplied an identity in and
    # squared once past its last bit, a zero power of a Fitting step was
    # still eliminated and each X_i was conjugated alone (65 and 172 now)
    counts = {"eliminate": 0, "matmul": 0}
    eliminate, matmul = linalg._eliminate, MatF.__matmul__

    def counted_eliminate(*args, **kwargs):
        counts["eliminate"] += 1
        return eliminate(*args, **kwargs)

    def counted_matmul(a, b):
        counts["matmul"] += 1
        return matmul(a, b)

    monkeypatch.setattr(linalg, "_eliminate", counted_eliminate)
    monkeypatch.setattr(MatF, "__matmul__", counted_matmul)
    assert [s.n for s in mr.fitting_decompose(ten_line_sum(), 60, 7).summands] == [3] * 10
    assert counts["eliminate"] <= 75 and counts["matmul"] <= 210


def test_decomposition_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma in numpy 2.4, about 15 ms at its first
    # call; a decomposition of the ten-line sum in a fresh process makes no
    # such import (the sum is built as ten_line_sum builds it)
    code = "\n".join([
        "import sys",
        "from eamod.gf import field_create",
        "from eamod import modrep, variety",
        "F9 = field_create(3, 2)",
        "elements = [F9.from_code(c) for c in range(9)]",
        "directions = [[elements[1], c] for c in elements] + [[elements[0], elements[1]]]",
        "module = variety.dv_rank2_builder(3, F9, directions)",
        "before = 'numpy.ma' in sys.modules",
        "result = modrep.fitting_decompose(module, 60, 7)",
        "print(before, [s.n for s in result.summands] == [3] * 10, 'numpy.ma' in sys.modules)",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(mr.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True", "False"]


def test_split_that_is_not_invariant_raises(monkeypatch):
    # a coordinate split of the ten-line sum cuts its first line apart
    mod = ten_line_sum()
    n = mod.n

    def coordinate_split(theta):
        return MatF.identity(F9, n).data, 1

    monkeypatch.setattr(mr, "_fitting_split", coordinate_split)
    with pytest.raises(BrokenInvariant, match=r"dim 30 is not block diagonal in the split 1 \+ 29"):
        mr.fitting_decompose(mod, 60, 7)


def test_canonical_basis_needs_the_identity():
    # the span of one nonzero nilpotent 2 x 2 matrix holds no element with
    # a nonzero entry (0, 0)
    work = np.array([[[0, 0, 1, 0]]], dtype=elim_dtype(3, 4))
    with pytest.raises(BrokenInvariant, match="size 2 over F_3, spanned by 1 rows"):
        cm._canonical_basis(F3, work, 2)


def test_jordan_type_rank_steps_are_checked(monkeypatch):
    # ranks 4, 3, 0 of N^0, N, N^2 drop by 1, then 3: a negative count of
    # size-1 blocks, which no matrix has.  4 = n is not a multiple of 3, so
    # no rank N is free and N and N^2 are one elimination
    faked = iter([np.array([3, 0])])
    monkeypatch.setattr(linalg, "_ranks", lambda ctx, work: next(faked))
    nil = canonical_nilpotent(F3, JordanType.from_blocks(3, [3, 1]))
    with pytest.raises(BrokenInvariant, match=r"ranks \[4, 3, 0, 0\] of the powers of a 4 x 4 matrix"):
        _jordan_types(F3, linalg.expand(F3, nil.data)[None], 3)


# theta = diag(c_1, c_2) over F_{p^2} (entries by code: w is code p), viewed
# over F_p or not; kernel_dim is dim ker t^n of the split returned, or None
@pytest.mark.parametrize("p,restrict,codes,kernel_dim", [
    (3, True, (1, 3), 2),      # psi_1: an F_3 eigenvalue against the pair w, w^3
    (3, True, (3, 4), 2),      # psi_2 nilpotent; the square w against the non-square w+1
    (3, True, (0, 2), 2),      # psi_1 nilpotent, character invertible; theta splits 0 off
    (3, True, (3, 3), None),   # one eigenvalue pair: nothing to split
    (2, False, (1, 2), 1),     # over F_4: trace 0 (eigenvalue 1) against trace 1 (w)
    (2, True, (0, 2), 2),      # psi_1 over F_2
    (2, True, (2, 2), None),
])
def test_fitting_split_steps(p, restrict, codes, kernel_dim):
    big = field_create(p, 2)
    theta = MatF.from_rows(big, [[big.from_code(c) if i == j else 0 for j in range(len(codes))]
                                 for i, c in enumerate(codes)])
    split = mr._fitting_split(restrict_matrix(theta) if restrict else theta)
    assert (None if split is None else split[1]) == kernel_dim


@st.composite
def small_sums(draw):
    """2-3 indecomposable pieces over one of F_3, F_9, F_4, F_5."""
    field = draw(st.sampled_from([F3, F9, field_create(2, 2), field_create(5, 1)]))
    p = field.p
    k = draw(st.sampled_from([1, 2]))
    pieces = []
    for _ in range(draw(st.integers(2, 3))):
        if k == 1:
            size = draw(st.integers(1, p))
            nil = canonical_nilpotent(field, JordanType.from_blocks(p, [size]))
            pieces.append(EAModule(p, 1, field, [nil]))
        elif draw(st.booleans()):
            pieces.append(mr.trivial_module(p, 2, field))
        else:
            codes = draw(st.tuples(st.integers(0, field.q - 1), st.integers(0, field.q - 1)).filter(any))
            pieces.append(mr.linear_variety_module(p, 2, field, [[field.from_code(c) for c in codes]]))
    return pieces


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(small_sums())
def test_fitting_summands_property(pieces):
    mod = pieces[0]
    for piece in pieces[1:]:
        mod = mr.direct_sum(mod, piece)
    result = mr.fitting_decompose(mod, trials=10, seed=1)
    for s in result.summands:
        mr.validate(s)
    assert sum(s.n for s in result.summands) == mod.n
    assert len(result.summands) <= len(pieces)
    recombined = result.summands[0]
    for s in result.summands[1:]:
        recombined = mr.direct_sum(recombined, s)
    for pt in slow_projective_points(mod.field, mod.k):
        assert mr.point_jordan_type(recombined, pt) == mr.point_jordan_type(mod, pt)


def test_module_file_roundtrip(tmp_path):
    mod = benson(F9, gen(F9), 1)
    path = tmp_path / "mod.json"
    mod.save(path)
    loaded = EAModule.load(path)
    assert loaded == mod
    raw = json.loads(path.read_text())
    assert raw["format"] == "eamod-v1"
    assert raw["field"] == {"p": 3, "m": 2, "irr": [1, 0, 1]}


def _per_entry_dict(mod):
    """The eamod-v1 dict with one list built per matrix entry."""
    return {
        "format": "eamod-v1",
        "p": mod.p,
        "k": mod.k,
        "dim": mod.n,
        "field": mod.field.to_dict(),
        "generators": [
            [[list(map(int, g.data[i, j])) for j in range(mod.n)] for i in range(mod.n)] for g in mod.gens
        ],
    }


@pytest.mark.parametrize("name", ["benson-f9", "d2-f9", "d2-f25", "zero-f25", "rank-zero-f9"])
def test_to_dict_bytes_match_per_entry_lists(tmp_path, name):
    f25 = field_create(5, 2)
    mod = {
        "benson-f9": lambda: benson(F9, gen(F9), 1),
        "d2-f9": lambda: sr.d_r(sr.SymContext(3, 3), F9, 2),
        "d2-f25": lambda: sr.d_r(sr.SymContext(5, 2), f25, 2),
        "zero-f25": lambda: zero_module(5, 2, f25),
        "rank-zero-f9": lambda: EAModule(3, 0, F9, [], dim=2),
    }[name]()
    dump = {"sort_keys": True, "separators": (",", ":")}
    expected = json.dumps(_per_entry_dict(mod), **dump)
    assert json.dumps(mod.to_dict(), **dump) == expected
    mod.save(tmp_path / "mod.json")
    assert (tmp_path / "mod.json").read_text() == expected + "\n"


def test_module_file_rejects_bad_data(tmp_path):
    mod = benson(F3, 0, 1)
    good = mod.to_dict()
    bad_format = dict(good, format="other")
    with pytest.raises(ValueError):
        EAModule.from_dict(bad_format)
    tampered = json.loads(json.dumps(good))
    tampered["generators"][0][0][1] = [1]  # breaks commutation with X_2
    tampered["generators"][1][1][0] = [1]
    with pytest.raises((NonCommuting, NotNilpotent, ValueError)):
        EAModule.from_dict(tampered)
    out_of_range = json.loads(json.dumps(good))
    out_of_range["generators"][0][1][0] = [5]
    with pytest.raises(ValueError):
        EAModule.from_dict(out_of_range)


def test_lift_to_extension():
    mod = benson(F3, 1, 1)
    lifted = mr.lift_to_extension(mod, F9)
    assert lifted.field == F9 and lifted.n == mod.n
    assert mr.point_jordan_type(lifted, [1, 1]) == mr.point_jordan_type(mod, [1, 1])
    with pytest.raises(MismatchedContext):
        mr.lift_to_extension(lifted, field_create(3, 3))


def test_lift_from_f9_sends_w_to_a_root_of_its_irr():
    f81 = field_create(3, 4)
    line = mr.linear_variety_module(3, 2, F9, [[gen(F9), one(F9)]])
    lifted = mr.lift_to_extension(line, f81)
    assert lifted.symmetry == mr.Symmetry.NONE
    # the line through (w, 1) goes to the line through (r, 1), r a root of F_9's irr
    points = [pt for pt in slow_projective_points(f81, 2) if not mr.is_free_at(lifted, pt)]
    assert len(points) == 1
    x, y = points[0].coords
    ratio = x / y
    assert not sum((c * ratio ** i for i, c in enumerate(F9.irr)), zero(f81))


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("p,m,ext_m", [(3, 2, 4), (2, 3, 6), (5, 2, 4)])
def test_lift_root_is_the_oracles_least_code_root(monkeypatch, block, p, m, ext_m):
    # the blocked Horner search against the scalar scan over every element in
    # code order; a block of 7 codes puts the root past the first block
    if block:
        monkeypatch.setattr(mr, "ROOT_BLOCK", block)
    src, ext = field_create(p, m), field_create(p, ext_m)
    w = gen(src)
    x = MatF.from_rows(src, [[0, 0, 0], [w, 0, 0], [w ** (m - 1), 0, 0]])
    lifted = mr.lift_to_extension(EAModule(p, 1, src, [x]), ext).gens[0]
    root = next(r for r in elements(ext) if not sum((c * r ** i for i, c in enumerate(src.irr)), zero(ext)))
    assert code(root) > 7
    assert (entry(lifted, 1, 0), entry(lifted, 2, 0)) == (root, root ** (m - 1))


@st.composite
def lifted_prime_field_modules(draw):
    """A small F_p module in a random F_p basis, its lift to F_{p^m} and a point there."""
    base, ext = draw(st.sampled_from([(F3, F9), (F3, field_create(3, 3)), (field_create(5, 1), field_create(5, 2))]))
    p = base.p
    j3 = canonical_nilpotent(base, JordanType.from_blocks(p, [3]))
    lam, mu = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
    direction = draw(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)).filter(any))
    # D(p-1) over F_3 and D(1) have variety points off F_p, which Frobenius moves
    pieces = [
        EAModule(p, 2, base, [j3, MatF(base, lam * j3.data + mu * (j3 @ j3).data)]),
        mr.linear_variety_module(p, 2, base, [list(direction)]),
        sr.d_r(sr.SymContext(p, 2), base, 2 if p == 3 else 1),
    ]
    chosen = draw(st.lists(st.sampled_from(pieces), min_size=1, max_size=2))
    mod = chosen[0] if len(chosen) == 1 else mr.direct_sum(*chosen)
    n = mod.n
    entries = draw(st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n))
    conj = MatF.from_rows(base, [entries[i * n : (i + 1) * n] for i in range(n)])
    assume(conj.rank() == n)
    inv = conj.inv()
    mod = EAModule(p, 2, base, [conj @ g @ inv for g in mod.gens])
    coords = draw(st.tuples(st.integers(0, ext.q - 1), st.integers(0, ext.q - 1)).filter(any))
    return mr.lift_to_extension(mod, ext), [from_code(ext, c) for c in coords]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(lifted_prime_field_modules())
def test_frobenius_invariance_property(case):
    """A module with entries in F_p has one Jordan type at alpha and at alpha^p."""
    mod, alpha = case
    p = mod.p
    frob = [c ** p for c in alpha]
    gens = [rows_of(g) for g in mod.gens]
    expect = slow_jordan_mult(slow_combination(alpha, gens), p)
    assert slow_jordan_mult(slow_combination(frob, gens), p) == expect
    assert mr.point_jordan_type(mod, alpha).mult == expect
    assert mr.point_jordan_type(mod, frob).mult == expect


@pytest.mark.parametrize(
    "key,value,field",
    [("p", [3], False), ("dim", None, False), ("m", [1], True), ("irr", [[0], 1], True)],
)
def test_module_file_names_bad_key(key, value, field):
    raw = benson(F3, 0, 1).to_dict()
    if field:
        raw["field"] = dict(raw["field"], **{key: value})
    else:
        raw[key] = value
    with pytest.raises(ValueError, match=f"key '{key}'"):
        EAModule.from_dict(raw)
