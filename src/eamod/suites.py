"""Named verification suites reproducing the headline computations.

Each suite returns a SuiteReport with one entry per check; reports are
deterministic given identical arguments and seed, and carry no timing.
Suite names and default parameter sets follow the acceptance checklist
in the README.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .gf import BadParams, FieldCtx, arr_mul, field_create
from .linalg import JordanType, MatF
from . import modrep as mr
from . import symrep as sr
from . import variety as vy
from .stream import CounterStream

DEFAULT_PAIRS = {
    "rank-lemma": [(3, 2), (3, 3), (5, 2)],
    "basis-change": [(3, 2), (3, 3), (5, 2), (5, 3)],
    "jtd1": [(3, 2), (3, 3), (5, 2), (5, 3)],
    "jtdp1": [(3, 2), (3, 3), (5, 2)],
    "main-thm": [(3, 2), (3, 3), (5, 2)],
}


@dataclass
class Check:
    id: str
    description: str
    paper_anchor: str
    expected: object
    actual: object
    ok: bool

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "description": self.description,
            "paper_anchor": self.paper_anchor,
            "expected": self.expected,
            "actual": self.actual,
            "pass": self.ok,
        }


@dataclass
class SuiteReport:
    suite: str
    parameters: dict
    checks: list = dc_field(default_factory=list)
    exploratory: bool = False

    def add(self, id_, description, anchor, expected, actual) -> bool:
        ok = expected == actual
        self.checks.append(Check(id_, description, anchor, expected, actual, ok))
        return ok

    def add_info(self, id_, description, anchor, actual) -> None:
        """Report-only entry: recorded, never failing."""
        self.checks.append(Check(id_, description, anchor, actual, actual, True))

    @property
    def passed(self) -> bool:
        return self.exploratory or all(c.ok for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "parameters": self.parameters,
            "exploratory": self.exploratory,
            "pass": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def _jt(p, blocks) -> JordanType:
    return JordanType.from_blocks(p, blocks)


def _span_points(field: FieldCtx, basis_rows, k: int):
    """Codes of the normalized projective points of the field-span of the rows.

    The span is closed under scaling, so its normalized points are the
    span vectors whose first nonzero coordinate is 1.  Every combination
    of the r rows, its coefficients the base-q digits of 0..q^r-1, is
    one arr_mul and a sum.
    """
    r, q = len(basis_rows), field.q
    rows = field.coerce(basis_rows, 2).reshape(r, k, field.m)
    coeffs = field.from_codes(np.arange(q ** r)[:, None] // q ** np.arange(r) % q)
    vec = field.to_codes(arr_mul(field, coeffs[:, :, None], rows).sum(axis=1) % field.p)
    lead = vec[np.arange(len(vec)), (vec != 0).argmax(axis=1)]
    return set(map(tuple, vec[lead == 1].tolist()))


def suite_rank_lemma(p: int, k: int) -> SuiteReport:
    ext_degrees = (1, 2)
    rep = SuiteReport("rank-lemma", {"p": p, "k": k, "ext_degrees": list(ext_degrees)})
    ctx = sr.SymContext(p, k)
    for m in ext_degrees:
        field = field_create(p, m)
        result = sr.rank_lemma_check(ctx, field)
        for clause in result["clauses"]:
            rep.add(
                f"rank-lemma/{p}-{k}/ext{m}/clause-{clause['number']}",
                f"{clause['clause']} over F_{field.q} ({clause['points_checked']} points)",
                "Lemma rank (i)-(iii)",
                [],
                clause["failures"],
            )
    return rep


def suite_basis_change(p: int, k: int) -> SuiteReport:
    rep = SuiteReport("basis-change", {"p": p, "k": k})
    ctx = sr.SymContext(p, k)
    field = field_create(p, 1)
    rep.add(
        f"basis-change/{p}-{k}",
        "permutation model conjugated by the chain-basis matrix equals the block model",
        "Lemma D(1) basis; Lemma action",
        True,
        sr.basis_change_check(ctx, field),
    )
    return rep


def suite_jtd1(p: int, k: int, ext: int = 4, trials: int = 24, seed: int = 7) -> SuiteReport:
    rep = SuiteReport(
        "jtd1", {"p": p, "k": k, "ext": ext, "trials": trials, "seed": seed}
    )
    ctx = sr.SymContext(p, k)
    module = sr.block_model_d1(ctx, field_create(p, 1))
    expected = _jt(p, [p] * (k - 1) + [p - 2])
    got, evidence = vy.generic_type(module, ext, trials, seed)
    rep.add(
        f"jtd1/{p}-{k}/generic",
        f"generic type of D(1) restricted to E_{k} (attained {evidence.attained}/{evidence.samples})",
        "Theorem jtD",
        str(expected),
        str(got) if got is not None else "inconclusive",
    )
    field2 = field_create(p, 2)
    report = vy.variety_points(sr.block_model_d1(ctx, field2), field2)
    # the maximal Jordan set of D(1) restricted to E_k: for p >= 5 the
    # complement of V(p_k) and the coordinate hyperplanes; at p = 3 the
    # complement of V(p_k) alone (the hyperplane clause collapses because
    # a lone generator already attains the maximal type)
    want = sr.pk_eval_batch(sr.PkPoly(p, k), field2, report.codes).any(axis=1)
    if p >= 5:
        want &= report.codes.all(axis=1)
    maximal = np.array([t == expected for t in report.types])[report.orbit]
    mismatches = report.codes[want != maximal].tolist()
    target = (
        "V(p_k) + coordinate hyperplanes" if p >= 5 else "V(p_k) (p=3 amendment)"
    )
    rep.add(
        f"jtd1/{p}-{k}/max-set",
        f"maximal-set complement over F_{field2.q} equals {target}",
        "Theorem jtD; Corollary complement",
        [],
        [str(pt) for pt in vy.code_points(field2, mismatches)],
    )
    return rep


def suite_jtdp1(p: int, k: int, ext: int = 4, trials: int = 24, seed: int = 7) -> SuiteReport:
    rep = SuiteReport(
        "jtdp1", {"p": p, "k": k, "ext": ext, "trials": trials, "seed": seed}
    )
    ctx = sr.SymContext(p, k)
    module = sr.d_r(ctx, field_create(p, 1), p - 1)
    dim = math.comb(k * p - 2, p - 1)
    assert dim % p == 0
    expected = _jt(p, [p] * (dim // p))
    got, evidence = vy.generic_type(module, ext, trials, seed)
    rep.add(
        f"jtdp1/{p}-{k}",
        f"generic type of D(p-1) restricted to E_{k} is free of rank {dim // p} "
        f"(attained {evidence.attained}/{evidence.samples})",
        "Lemma jtDp-1",
        str(expected),
        str(got) if got is not None else "inconclusive",
    )
    return rep


def _variety_vs_pk(ctx: sr.SymContext, field: FieldCtx):
    """V(D(p-1)) over the field compared with V(p_k): the report and "(v vs z points)"."""
    report = vy.variety_points(sr.d_r(ctx, field, ctx.p - 1), field)
    zeros = vy.zero_points(sr.PkPoly(ctx.p, ctx.k), field)
    vy.compare_sets(report, zeros, target_tag="pk")
    return report, f"({report.counts()['variety']} vs {len(zeros)} points)"


def suite_main_thm(p: int, k: int, ext: int = 2) -> SuiteReport:
    rep = SuiteReport("main-thm", {"p": p, "k": k, "ext": ext})
    field = field_create(p, ext)
    report, sizes = _variety_vs_pk(sr.SymContext(p, k), field)
    rep.add(
        f"main-thm/{p}-{k}/ext{ext}",
        f"variety of D(p-1) over F_{field.q} vs zero set of p_k {sizes}",
        "Theorem main thm",
        "Equal",
        report.verdict,
    )
    return rep


def suite_decomp_k2(p: int = 3, trials: int = 60, seed: int = None) -> SuiteReport:
    if p != 3:
        # for larger p the projective part of D(p-1) restricted to E_2 need
        # not vanish, so the expected summand shape below is p = 3 specific
        raise ValueError("decomp-k2 is defined for p = 3")
    seeds = tuple(range(7, 17)) if seed is None else (seed,)  # None: try 7-16 in turn
    rep = SuiteReport(
        "decomp-k2", {"p": p, "trials": trials, "seeds": list(seeds)}
    )
    ctx = sr.SymContext(p, 2)
    field = field_create(p, 2)
    module = sr.d_r(ctx, field, p - 1)
    # the p-1 lines through the (p-1)th roots of -1, i.e. the zero set of p_2
    expected_lines = vy.zero_points(sr.PkPoly(p, 2), field).tolist()
    result = None
    used_seed = None
    for seed in seeds:
        candidate = mr.fitting_decompose(module, trials=trials, seed=seed)
        if candidate.decomposed:
            result = candidate
            used_seed = seed
            break
    if result is None:
        rep.add("decomp-k2/split", "found a splitting", "k=2 corollary", True, False)
        return rep
    rep.parameters["seed_used"] = used_seed
    dims = sorted(s.n for s in result.summands)
    rep.add(
        "decomp-k2/dims",
        f"summand dimensions (seed {used_seed})",
        "k=2 corollary",
        [p] * (p - 1),
        dims,
    )
    rep.add(
        "decomp-k2/nonprojective",
        "every summand is non-projective",
        "k=2 corollary",
        [False] * len(result.summands),
        [mr.projective_test(s)[0] for s in result.summands],
    )
    swept = [vy.variety_points(s, field) for s in result.summands]
    rep.add(
        "decomp-k2/lines",
        f"summand varieties over F_{field.q} are the p-1 distinct lines",
        "k=2 corollary; Theorem main thm",
        [[line] for line in expected_lines],
        sorted(r.codes[r.variety_mask()].tolist() for r in swept),
    )
    return rep


def peel_dim(n: int, r: int) -> int:
    """dim D(r) for p | n by Peel's recursion dim D(r) = C(n-1, r) - dim D(r-1), dim D(0) = 1."""
    return 1 if r == 0 else math.comb(n - 1, r) - peel_dim(n, r - 1)


def suite_indec_21(p: int = 3, k: int = 3, trials: int = 60, seed: int = 7) -> SuiteReport:
    rep = SuiteReport("indec-21", {"p": p, "k": k, "trials": trials, "seed": seed})
    ctx = sr.SymContext(p, k)
    module = sr.d_r(ctx, field_create(p, 1), p - 1)
    rep.add(
        "indec-21/dim",
        "dimension of the wedge module",
        "Introduction (dimension 21)",
        peel_dim(k * p, p - 1),
        module.n,
    )
    result = mr.fitting_decompose(module, trials=trials, seed=seed)
    rep.add(
        "indec-21/no-split",
        f"no splitting found in {trials} trials (evidence, not proof)",
        "Introduction (indecomposable via Fitting probes)",
        "no_split_found",
        result.status,
    )
    return rep


def suite_dv_linear(p: int = 3, k: int = None, ext: int = 2) -> SuiteReport:
    ks = (2, 3) if k is None else (k,)  # None: E_2 and E_3
    if min(ks) < 1:
        raise BadParams(f"rank k must be >= 1, got {k}")
    rep = SuiteReport("dv-linear", {"p": p, "ks": list(ks), "ext": ext})
    for k in ks:
        field = field_create(p, ext)
        for dim in range(0, k + 1):
            for rows in vy.fp_subspaces(p, k, dim):
                tag = "".join("".join(map(str, r)) for r in rows) or "0"
                module = mr.linear_variety_module(p, k, field, rows)
                rep.add(
                    f"dv-linear/{p}-{k}/dim{dim}/{tag}/dimension",
                    f"module dimension is p^(k-r) for span {rows}",
                    "Lemma linear space",
                    p ** (k - dim),
                    module.n,
                )
                expected_pts = sorted(_span_points(field, rows, k))
                got = sorted(
                    vy.variety_points(module, field).variety_codes()
                )
                rep.add(
                    f"dv-linear/{p}-{k}/dim{dim}/{tag}/variety",
                    f"variety over F_{field.q} equals the span",
                    "Lemma linear space",
                    expected_pts,
                    got,
                )
                if dim >= 1:
                    induced = mr.induce(mr.trivial_module(p, dim, field), rows)
                    got_ind = sorted(
                        vy.variety_points(induced, field).variety_codes()
                    )
                    rep.add(
                        f"dv-linear/{p}-{k}/dim{dim}/{tag}/induced",
                        "variety of the induced trivial module equals the span",
                        "Lemma rkinduction (final assertion)",
                        expected_pts,
                        got_ind,
                    )
    return rep


def suite_dv_rank2(p: int = 3, ext: int = 2) -> SuiteReport:
    rep = SuiteReport("dv-rank2", {"p": p, "ext": ext})
    field = field_create(p, ext)
    direction_sets = [
        [[1, 0]],
        [[1, 0], [0, 1]],
        [[1, 0], [0, 1], [1, 1]],
    ]
    for directions in direction_sets:
        d = len(directions)
        module = vy.dv_rank2_builder(p, field, directions)
        rep.add(
            f"dv-rank2/d{d}/dimension",
            f"dimension equals d*p for {directions}",
            "rank-2 d_V theorem",
            d * p,
            module.n,
        )
        expected = set()
        for direction in directions:
            expected |= _span_points(field, [direction], 2)
        got = vy.variety_points(module, field).variety_codes()
        rep.add(
            f"dv-rank2/d{d}/variety",
            f"variety over F_{field.q} is the union of the {d} lines",
            "rank-2 d_V theorem; Theorem basic rank (iii)",
            sorted(expected),
            sorted(got),
        )
    return rep


def _witness_name(module, field: FieldCtx):
    """The name of green_witness's point, or None."""
    row = vy.green_witness(module, field)
    return None if row is None else str(vy.code_points(field, [row])[0])


def suite_green(p: int = 3) -> SuiteReport:
    rep = SuiteReport("green", {"p": p})
    field = field_create(p, 2)
    ctx = sr.SymContext(p, 2)
    module = sr.d_r(ctx, field, p - 1)
    found = _witness_name(module, field)
    rep.add(
        "green/witness-exists",
        f"D(p-1) restricted to E_2 over F_{field.q} has a witness outside every "
        "proper base subspace",
        "Theorem Green; Remark (Green vertex of D(p-1))",
        True,
        found is not None,
    )
    if found is not None:
        rep.add_info(
            "green/witness-point",
            "witness point found",
            "Theorem Green",
            found,
        )
    for k in (2, 3):
        for dim in range(1, k):
            for rows in vy.fp_subspaces(p, k, dim):
                tag = "".join("".join(map(str, r)) for r in rows)
                base_mod = mr.linear_variety_module(p, k, field, rows)
                rep.add(
                    f"green/base-{k}-{tag}",
                    f"no witness for the base-subspace module spanned by {rows}",
                    "Theorem Green; Lemma linear space",
                    None,
                    _witness_name(base_mod, field),
                )
    return rep


def _wreath_images(p: int, codes: np.ndarray, gamma, sigma):
    """Images of (N, k) F_p code rows under the wreath generator (gamma, sigma).

    Over F_p a code is the residue itself.  Coordinate i is multiplied
    by the unit gamma_i mod p and placed at sigma[i], so beta_sigma(i) =
    gamma_i x_i.  Returns the moved rows and their normalizations, each
    scaled by the inverse of its leading coordinate.  The images are
    taken here, apart from the orbit sweep (orbit_representatives).
    """
    moved = np.empty_like(codes)
    moved[:, list(sigma)] = codes * np.asarray(gamma) % p
    lead = moved[np.arange(len(moved)), (moved != 0).argmax(axis=1)]
    inverse = np.array([0] + [pow(a, -1, p) for a in range(1, p)])
    return moved, moved * inverse[lead][:, None] % p


def suite_axioms(p: int = 3, seed: int = 11) -> SuiteReport:
    rep = SuiteReport("axioms", {"p": p, "seed": seed})
    field2 = field_create(p, 2)
    field1 = field_create(p, 1)
    ctx2 = sr.SymContext(p, 2)
    ctx3 = sr.SymContext(p, 3)
    if p > 5:
        dim = math.comb(3 * p - 2, p - 1)
        raise BadParams(f"axioms takes p <= 5: its wreath check builds D(p-1) at k = 3, "
                        f"of dim C({3 * p - 2}, {p - 1}) = {dim} at p = {p}")
    d1_f2 = sr.block_model_d1(ctx2, field2)
    line = mr.linear_variety_module(p, 2, field2, [[1, 1]])

    # sum / tensor point-set laws
    sum_mod = mr.direct_sum(d1_f2, line)
    tensor_mod = mr.tensor(d1_f2, line)
    reports = [vy.variety_points(mod, field2) for mod in (d1_f2, line, sum_mod, tensor_mod)]
    v_a, v_b, v_sum, v_tensor = (r.variety_codes() for r in reports)
    off_sum, off_tensor = v_sum ^ (v_a | v_b), v_tensor ^ (v_a & v_b)
    bad_sum = [str(pt) for pt in vy.code_points(field2, sorted(off_sum))]
    bad_tensor = [str(pt) for pt in vy.code_points(field2, sorted(off_tensor))]
    rep.add(
        "axioms/sum-law",
        f"variety of a direct sum is the union, over F_{field2.q}",
        "Theorem basic rank (iii)",
        [],
        bad_sum,
    )
    rep.add(
        "axioms/tensor-law",
        f"variety of a tensor product is the intersection, over F_{field2.q}",
        "Theorem basic rank (iii)",
        [],
        bad_tensor,
    )

    # dual preservation on seeded random (module, point) pairs: freeness
    # is preserved at every point, the full type at maximal points.
    # (Full type equality at degenerate points fails in general; see the
    # informational entry.)
    stream = CounterStream(seed)
    bad_dual_free = []
    bad_dual_maximal = []
    dual_observed = []
    x1 = MatF.from_rows(field2, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    for trial in range(50):
        lam, mu = (field2.from_code(stream.below(field2.q)) for _ in range(2))
        x2 = MatF.from_rows(field2, [[0, 0, 0], [lam, 0, 0], [mu, lam, 0]])
        base = mr.EAModule(p, 2, field2, [x1, x2])
        if trial % 3 == 1:
            base = mr.tensor(base, base)
        elif trial % 3 == 2:
            base = mr.direct_sum(base, d1_f2)
        row = [stream.below(field2.q) for _ in range(2)]
        if not any(row):
            row[0] = 1
        at = field2.from_codes([row])
        (t_base,), (t_dual,) = mr.jordan_types_at(base, at), mr.jordan_types_at(mr.dual(base), at)
        if t_dual != t_base:
            # the point is named, and the generic type found, only where the types differ
            tag = f"trial {trial} at {vy.code_points(field2, [row])[0]}"
            if t_dual.is_free() != t_base.is_free():
                bad_dual_free.append(tag)
            if t_base == vy.generic_type(base, 2, 8, seed=trial)[0]:
                bad_dual_maximal.append(tag)
            dual_observed.append(f"{tag}: {t_dual} vs {t_base}")
    rep.add(
        "axioms/dual-preserves-freeness",
        "dual module is free at exactly the same points, 50 seeded pairs",
        "Theorem basic rank (iii) context; duality via transpose-inverse",
        [],
        bad_dual_free,
    )
    rep.add(
        "axioms/dual-preserves-maximal-type",
        "dual module has the same Jordan type wherever the point is maximal",
        "duality via transpose-inverse; FPS maximal types",
        [],
        bad_dual_maximal,
    )
    rep.add_info(
        "axioms/dual-type-nonmaximal",
        "observed dual type mismatches at non-maximal points (the type at a "
        "degenerate point is not stable under radical-square perturbations)",
        "duality via transpose-inverse (scope)",
        dual_observed,
    )

    # pointwise wedge law, on its provable domain (the maximal set);
    # mismatches at non-maximal points are reported informationally.
    wedge_required, wedge_observed = [], []
    for ctx, rr in ((ctx2, (1, 2)), (ctx3, (2,))):
        mod1 = sr.block_model_d1(ctx, field1)
        mod2 = sr.block_model_d1(ctx, field2)
        generic = _jt(p, [p] * (ctx.k - 1) + [p - 2])
        swept = vy.variety_points(mod1, field1)
        swept_types = [swept.types[i] for i in swept.orbit.tolist()]
        at_swept = field1.from_codes(swept.codes)
        for r in rr:
            w1, w2 = mr.wedge(mod1, r), mr.wedge(mod2, r)
            sampled = []
            for j in range(30):
                stream_j = CounterStream(seed, ctx.k, r, j)
                row = [stream_j.below(field2.q) for _ in range(ctx.k)]
                if any(row):
                    sampled.append(row)
            at_sampled = field2.from_codes(sampled)
            rows = [(field1, row) for row in swept.codes.tolist()] + [(field2, row) for row in sampled]
            t_bases = swept_types + mr.jordan_types_at(mod2, at_sampled)
            lhss = mr.jordan_types_at(w1, at_swept) + mr.jordan_types_at(w2, at_sampled)
            for (field, row), t_base, lhs in zip(rows, t_bases, lhss):
                rhs = mr.wedge_jordan(t_base, r, p)
                if lhs == rhs:
                    continue
                pt = vy.code_points(field, [row])[0]
                if t_base == generic:
                    wedge_required.append(f"k={ctx.k} r={r} {pt}")
                else:
                    wedge_observed.append(f"k={ctx.k} r={r} {pt}: {lhs} vs {rhs}")
    rep.add(
        "axioms/wedge-law-maximal",
        "pointwise exterior-power law at every maximal point of the stated sweeps",
        "Proposition Umax",
        [],
        wedge_required,
    )
    rep.add_info(
        "axioms/wedge-law-nonmaximal",
        "observed law violations at non-maximal points (restriction and wedge "
        "commute on group elements only; outside the maximal set the law can fail)",
        "Proposition Umax (scope)",
        wedge_observed,
    )

    # freeness criterion matches the full Jordan type
    bad_free = []
    codes = vy.projective_codes(field2, 2)
    at_codes = field2.from_codes(codes)
    for module in (d1_f2, line, sr.d_r(ctx2, field2, p - 1)):
        for row, alpha, jt in zip(codes.tolist(), at_codes, mr.jordan_types_at(module, at_codes)):
            free_jt = module.n % p == 0 and jt == _jt(p, [p] * (module.n // p))
            if mr.is_free_at(module, alpha) != free_jt:
                bad_free.append(f"{module} {vy.code_points(field2, [row])[0]}")
    rep.add(
        "axioms/free-iff-full-type",
        "is_free_at agrees with the Jordan type being [p]^(n/p)",
        "Corollary complement",
        [],
        bad_free,
    )

    # wreath invariance for the symmetric-group modules; the sweep runs on an
    # undeclared copy, since a sweep over orbits of the declared coordinate
    # permutations would restate the invariance it checks
    bad_wreath = []
    units = list(range(1, p))
    for ctx in (ctx2, ctx3):
        module = sr.d_r(ctx, field1, p - 1)
        module = mr.EAModule(module.p, module.k, module.field, module.gens)
        k = ctx.k
        gens = [(tuple([units[-1]] + [1] * (k - 1)), tuple(range(k)))]
        gens.append((tuple([1] * k), tuple([1, 0] + list(range(2, k)))))
        gens.append((tuple([1] * k), tuple(list(range(1, k)) + [0])))
        var = vy.variety_points(module, field1).variety_codes()
        codes = vy.projective_codes(field1, k)
        for gamma, sigma in gens:
            moved, images = _wreath_images(p, codes, gamma, sigma)
            for row, to, image in zip(codes.tolist(), moved.tolist(), images.tolist()):
                if (tuple(row) in var) != (tuple(image) in var):
                    pt, dest = vy.code_points(field1, [row, to])
                    bad_wreath.append(f"k={k} {pt} -> {dest}")
    rep.add(
        "axioms/wreath-invariance",
        "varieties of D(p-1) are invariant under the wreath generators over F_p",
        "Lemma symmetry",
        [],
        bad_wreath,
    )

    # projectivity bookkeeping
    regular = mr.regular_module(p, 2, field1)
    rep.add(
        "axioms/regular-projective",
        "the regular module is projective with one free summand",
        "Dade's lemma",
        (True, 1),
        mr.projective_test(regular),
    )
    d1_f1 = sr.block_model_d1(ctx2, field1)
    fs = mr.projective_test(mr.direct_sum(regular, d1_f1))[1]
    fs_parts = mr.projective_test(regular)[1] + mr.projective_test(d1_f1)[1]
    rep.add(
        "axioms/free-summand-additivity",
        "free summand counts add over direct sums",
        "Dade's lemma; socle-rank criterion",
        fs_parts,
        fs,
    )
    return rep


def suite_dimension(p: int = 3) -> SuiteReport:
    rep = SuiteReport("dimension", {"p": p})
    f2 = field_create(p, 2)
    f4 = field_create(p, 4)
    q = p ** 2
    n2 = vy.count_affine_zeros(sr.PkPoly(p, 2), f2)
    n4 = vy.count_affine_zeros(sr.PkPoly(p, 2), f4)
    # F_{p^m} with m even holds the 2(p-1)-th roots of unity, so
    # x^{p-1} = -y^{p-1} has p-1 solutions x/y for each y != 0
    rep.add(
        "dimension/pk2-counts",
        f"affine zero counts of p_2 over F_{q} and F_{q ** 2}",
        "Eq (p_k)",
        [1 + (q - 1) * (p - 1), 1 + (q * q - 1) * (p - 1)],
        [n2, n4],
    )
    rep.add(
        "dimension/pk2-estimate",
        "estimated dimension of V(p_2)",
        "Theorem dimension; Theorem basic rank (ii)",
        1,
        vy.dimension_estimate(n2, n4, q),
    )
    n2b = vy.count_affine_zeros(sr.PkPoly(p, 3), f2)
    n4b = vy.count_affine_zeros(sr.PkPoly(p, 3), f4)
    rep.add(
        "dimension/pk3-estimate",
        f"estimated dimension of V(p_3) (counts {n2b}/{n4b})",
        "Theorem dimension; Lemma irred (consumed)",
        2,
        vy.dimension_estimate(n2b, n4b, q),
    )
    # r = dim V(D(p-1)) from affine variety counts 1 + (q-1)(projective points)
    remainders = []
    for k in (2, 3):
        ctx = sr.SymContext(p, k)
        counts = []
        for field in (f2, f4):
            module = sr.d_r(ctx, field, p - 1)
            counts.append(1 + (field.q - 1) * vy.variety_points(module, field).counts()["variety"])
        r = vy.dimension_estimate(counts[0], counts[1], q)
        rep.add(
            f"dimension/complexity-k{k}",
            f"complexity estimate k-1 for D(p-1) restricted to E_{k}",
            "Corollary comp",
            k - 1,
            r,
        )
        remainders.append(module.n % p ** (k - r))
    rep.add(
        "dimension/divisibility",
        "p^(k-r) divides the module dimensions",
        "Theorem dimension",
        [0, 0],
        remainders,
    )
    return rep


def suite_explore_k1modp(p: int = 3, k: int = 4, ext: int = 2) -> SuiteReport:
    ext_degrees = (1,) if ext == 1 else (1, ext)
    rep = SuiteReport(
        "explore-k1modp",
        {"p": p, "k": k, "ext_degrees": list(ext_degrees)},
        exploratory=True,
    )
    ctx = sr.SymContext(p, k)
    for m in ext_degrees:
        field = field_create(p, m)
        report, sizes = _variety_vs_pk(ctx, field)
        rep.add_info(
            f"explore/{p}-{k}/ext{m}",
            f"variety of D(p-1) vs V(p_k) over F_{field.q} {sizes}; "
            "conjectural case k = 1 mod p, report only",
            "Remark after Theorem main thm",
            {
                "verdict": report.verdict,
                "witnesses": report.witnesses,
            },
        )
    return rep


SUITES = {
    "rank-lemma": suite_rank_lemma,
    "basis-change": suite_basis_change,
    "jtd1": suite_jtd1,
    "jtdp1": suite_jtdp1,
    "main-thm": suite_main_thm,
    "decomp-k2": suite_decomp_k2,
    "indec-21": suite_indec_21,
    "dv-linear": suite_dv_linear,
    "dv-rank2": suite_dv_rank2,
    "green": suite_green,
    "axioms": suite_axioms,
    "dimension": suite_dimension,
    "explore-k1modp": suite_explore_k1modp,
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, **options):
    """Run one named suite ("all" for every suite); returns a list of SuiteReports.

    Options that are None are dropped and the rest go to the suite as
    given, so each default lives in the suite's signature.  An option
    the suite does not take, or any option with "all", raises BadParams.
    A suite in DEFAULT_PAIRS runs its acceptance (p, k) set when given
    neither p nor k, and needs both otherwise.
    """
    options = {key: value for key, value in options.items() if value is not None}
    if name == "all":
        if options:
            raise BadParams(f"--suite all takes no options, got --{next(iter(options))}")
        return [report for suite in SUITES for report in run_suite(suite)]
    if name not in SUITES:
        raise BadParams(f"unknown suite {name!r}")
    suite = SUITES[name]
    taken = inspect.signature(suite).parameters
    for key in options:
        if key not in taken:
            raise BadParams(f"suite {name} takes no --{key}")
    if name in DEFAULT_PAIRS:
        if "p" not in options and "k" not in options:
            return [suite(p, k, **options) for p, k in DEFAULT_PAIRS[name]]
        if "p" not in options or "k" not in options:
            raise BadParams(f"suite {name} needs --p and --k together")
    return [suite(**options)]
