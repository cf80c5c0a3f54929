"""Acceptance checklist: one test per criterion, exact expectations.

Each test prints a single PASS/FAIL line (visible with pytest -s or in
captured output) and enforces the stated runtime budget.  Criteria are
exact; the only probabilistic one (decomp-k2) is allowed its seed
retries.
"""

import time

from eamod import modrep as mr
from eamod import suites
from eamod import symrep as sr
from eamod import variety as vy
from eamod.gf import field_create
from eamod.linalg import JordanType


def assert_unique_check_ids(reports):
    for r in reports:
        ids = [c.id for c in r.checks]
        assert len(ids) == len(set(ids)), f"{r.suite}: a check id repeats in {ids}"


def _finish(name, reports, started, budget):
    elapsed = time.perf_counter() - started
    assert_unique_check_ids(reports)
    failures = [
        (c.id, c.expected, c.actual)
        for r in reports
        for c in r.checks
        if not c.ok and not r.exploratory
    ]
    ok = not failures and elapsed < budget
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s / budget {budget}s)")
    assert not failures, failures
    assert elapsed < budget, f"{name} exceeded runtime budget: {elapsed:.1f}s >= {budget}s"


def test_01_rank_lemma():
    t0 = time.perf_counter()
    reports = [suites.suite_rank_lemma(p, k) for p, k in [(3, 2), (3, 3), (5, 2)]]
    _finish("1 rank-lemma", reports, t0, 10)


def test_02_basis_change():
    t0 = time.perf_counter()
    reports = [suites.suite_basis_change(p, k) for p, k in [(3, 2), (3, 3), (5, 2), (5, 3)]]
    _finish("2 basis-change", reports, t0, 5)


def test_03_jtd1():
    t0 = time.perf_counter()
    reports = [
        suites.suite_jtd1(p, k, ext=4, trials=24, seed=7)
        for p, k in [(3, 2), (3, 3), (5, 2), (5, 3)]
    ]
    _finish("3 jtd1", reports, t0, 30)


def test_04_jtdp1():
    t0 = time.perf_counter()
    reports = [
        suites.suite_jtdp1(p, k, ext=4, trials=24, seed=7)
        for p, k in [(3, 2), (3, 3), (5, 2)]
    ]
    expected = {
        (3, 2): JordanType.from_blocks(3, [3] * 2),
        (3, 3): JordanType.from_blocks(3, [3] * 7),
        (5, 2): JordanType.from_blocks(5, [5] * 14),
    }
    for (pair, want), rep in zip(expected.items(), reports):
        assert rep.checks[0].actual == str(want), pair
    _finish("4 jtdp1", reports, t0, 60)


def test_05_main_thm():
    t0 = time.perf_counter()
    reports = [suites.suite_main_thm(p, k, ext=2) for p, k in [(3, 2), (3, 3), (5, 2)]]
    _finish("5 main-thm", reports, t0, 120)


def test_06_decomp_k2():
    t0 = time.perf_counter()
    reports = [suites.suite_decomp_k2(p=3, trials=60)]
    _finish("6 decomp-k2", reports, t0, 30)


def test_07_indec_21():
    t0 = time.perf_counter()
    reports = [suites.suite_indec_21(p=3, k=3, trials=60, seed=7)]
    _finish("7 indec-21", reports, t0, 60)


def test_08_dv_linear():
    t0 = time.perf_counter()
    reports = [suites.suite_dv_linear(p=3, ext=2)]
    _finish("8 dv-linear", reports, t0, 30)


def test_09_dv_rank2():
    t0 = time.perf_counter()
    reports = [suites.suite_dv_rank2(p=3, ext=2)]
    _finish("9 dv-rank2", reports, t0, 10)


def test_10_green():
    t0 = time.perf_counter()
    reports = [suites.suite_green(p=3)]
    _finish("10 green", reports, t0, 10)


def test_10_green_p5():
    # D(4) over F_25 (dim 70): the F_25 sweeps run every float_mod path
    t0 = time.perf_counter()
    reports = [suites.suite_green(p=5)]
    _finish("10 green p=5", reports, t0, 10)


def test_11_axioms():
    t0 = time.perf_counter()
    reports = [suites.suite_axioms(p=3, seed=11)]
    _finish("11 axioms", reports, t0, 120)


def test_axioms_wreath_sweep_declares_no_symmetry(monkeypatch):
    """axioms/wreath-invariance must sweep D(p-1) point by point: an orbit sweep
    over declared coordinate permutations would restate what it checks."""
    swept = []
    full_sweep = vy.variety_points

    def recording(module, field):
        swept.append(module)
        return full_sweep(module, field)

    monkeypatch.setattr(suites.vy, "variety_points", recording)
    report = suites.suite_axioms(p=3, seed=11)
    assert next(c for c in report.checks if c.id == "axioms/wreath-invariance").ok
    f3 = field_create(3, 1)
    d_p_minus_1 = [sr.d_r(sr.SymContext(3, k), f3, 2) for k in (2, 3)]
    assert all(any(mod == d for mod in swept) for d in d_p_minus_1)
    assert all(mod.symmetry == mr.Symmetry.NONE for mod in swept)


def test_12_dimension():
    t0 = time.perf_counter()
    reports = [suites.suite_dimension(p=3)]
    counts = next(c for c in reports[0].checks if c.id == "dimension/pk2-counts")
    assert counts.actual == [17, 161]
    _finish("12 dimension", reports, t0, 30)


def test_13_explore_k1modp():
    t0 = time.perf_counter()
    report = suites.suite_explore_k1modp(p=3, k=4, ext=2)
    elapsed = time.perf_counter() - t0
    assert report.exploratory and report.passed
    assert len(report.checks) == 2
    assert_unique_check_ids([report])
    verdicts = {c.id: c.actual["verdict"] for c in report.checks}
    print(f"ACCEPTANCE 13 explore-k1modp: REPORT {verdicts} ({elapsed:.1f}s / budget 600s)")
    assert elapsed < 600


def test_acceptance_cross_validation_projectivity_vs_point_sweep():
    # socle-rank projectivity criterion agrees with Dade-style point sweeps
    f9 = field_create(3, 2)
    modules = [
        mr.regular_module(3, 2, f9),
        mr.linear_variety_module(3, 2, f9, [[1, 1]]),
        sr.d_r(sr.SymContext(3, 2), f9, 2),
        mr.direct_sum(mr.regular_module(3, 2, f9), mr.trivial_module(3, 2, f9)),
    ]
    for module in modules:
        is_proj, _ = mr.projective_test(module)
        sweep_empty = not vy.variety_points(module, f9).variety_codes()
        assert is_proj == sweep_empty
