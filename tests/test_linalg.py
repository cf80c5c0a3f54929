import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from eamod import linalg
from eamod.gf import BadParams, FieldCtx, field_create
from eamod.linalg import (
    Dominance,
    JordanType,
    MatF,
    NotNilpotent,
    UnequalTotals,
    _eliminate,
    _pivot_blocks,
    _ranks,
    arr_mul,
    canonical_nilpotent,
    combine,
    compound_matrix,
    dominance_compare,
    elim_dtype,
    expand,
    float_mod,
    jordan_type_nilpotent,
    jordan_types,
)
from eamod.stream import CounterStream

from oracles import (
    leibniz_compound,
    slow_combination,
    slow_inverse,
    slow_jordan_mult,
    slow_matmul,
    slow_rank,
    slow_rref,
)

F3 = field_create(3, 1)
F8 = field_create(2, 3)
F9 = field_create(3, 2)
F5 = field_create(5, 1)
F25 = field_create(5, 2)
F11 = field_create(11, 1)
F121 = field_create(11, 2)
F13 = field_create(13, 1)


def random_mat(ctx, rows, cols, stream):
    data = np.zeros((rows, cols, ctx.m), dtype=np.int64)
    for i in range(rows):
        for j in range(cols):
            data[i, j] = ctx.from_code(stream.below(ctx.q))
    return MatF(ctx, data)


def as_fel_rows(mat):
    return [[mat.get(i, j) for j in range(mat.cols)] for i in range(mat.rows)]


def test_rank_examples():
    assert MatF.identity(F3, 3).rank() == 3
    assert MatF.zeros(F3, 4, 4).rank() == 0
    x1 = MatF.from_rows(F3, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert x1.rank() == 2


def test_kernel_examples():
    assert MatF.identity(F3, 3).kernel_basis() == []
    z = MatF.zeros(F3, 2, 2).kernel_basis()
    assert [[int(c.coeffs[0]) for c in v] for v in z] == [[1, 0], [0, 1]]
    a = MatF.from_rows(F3, [[1, 1], [2, 2]])
    assert [[int(c.coeffs[0]) for c in v] for v in a.kernel_basis()] == [[1, 2]]


@pytest.mark.parametrize("ctx", [F3, F9, F5, F25])
def test_rank_matches_slow_oracle(ctx):
    stream = CounterStream(7, ctx.p, ctx.m)
    for trial in range(25):
        rows = 1 + stream.below(7)
        cols = 1 + stream.below(7)
        mat = random_mat(ctx, rows, cols, stream)
        assert mat.rank() == slow_rank(as_fel_rows(mat))


@pytest.mark.parametrize("ctx", [F9, F25])
def test_matmul_matches_slow_oracle(ctx):
    stream = CounterStream(11, ctx.p, ctx.m)
    for _ in range(10):
        a = random_mat(ctx, 4, 5, stream)
        b = random_mat(ctx, 5, 3, stream)
        prod = a @ b
        expect = slow_matmul(as_fel_rows(a), as_fel_rows(b))
        assert as_fel_rows(prod) == expect


@st.composite
def matrix_pairs(draw):
    """A (rows x inner) and an (inner x cols) matrix over one small field.

    Each matrix draws its entries from all of F_q, from the prime field
    only, or is zero, so products meet zero coefficient planes.  p = 11
    and p = 13 are the last prime eliminated in int8 and the first in
    int16.
    """
    ctx = draw(st.sampled_from([field_create(2, 1), F3, field_create(2, 2),
                                field_create(2, 3), F9, F25, F11, F121, F13]))
    rows, inner, cols = (draw(st.integers(1, 4)) for _ in range(3))
    mats = []
    for r, c in ((rows, inner), (inner, cols)):
        top = draw(st.sampled_from([ctx.q, ctx.p, 1]))
        codes = draw(st.lists(st.sampled_from(range(top)), min_size=r * c, max_size=r * c))
        data = np.array([ctx.from_code(v) for v in codes], dtype=np.int64)
        mats.append(MatF(ctx, data.reshape(r, c, ctx.m)))
    return mats


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(matrix_pairs())
def test_products_match_fel_oracle(pair):
    a, b = pair
    ctx = a.ctx
    rows_a, rows_b = as_fel_rows(a), as_fel_rows(b)
    prod = slow_matmul(rows_a, rows_b)
    assert as_fel_rows(a @ b) == prod
    assert a.rank() == slow_rank(rows_a)
    assert (a @ b).rank() == slow_rank(prod)
    kron = a.kron(b)
    assert as_fel_rows(kron) == [
        [rows_a[i][j] * rows_b[k][l] for j in range(a.cols) for l in range(b.cols)]
        for i in range(a.rows) for k in range(b.rows)
    ]
    # terms[i, j, t] = a[i, t] * b[t, j], broadcast over (rows, 1, inner) x (1, cols, inner)
    terms = arr_mul(ctx, a.data[:, None], b.data.transpose(1, 0, 2)[None])
    assert terms.shape == (a.rows, b.cols, a.cols, ctx.m)
    for i in range(a.rows):
        for j in range(b.cols):
            for t in range(a.cols):
                assert ctx.el(terms[i, j, t].tolist()) == rows_a[i][t] * rows_b[t][j]
    reduced, pivots = a.rref()
    assert (as_fel_rows(reduced), pivots) == slow_rref(rows_a)
    # one kernel vector per free column j: zero on the other free columns,
    # first nonzero coordinate 1, annihilated by a
    free = [j for j in range(a.cols) if j not in pivots]
    kernel = a.kernel_array()
    assert kernel.shape == (len(free), a.cols, ctx.m)
    for vec, j in zip(kernel, free):
        coords = [ctx.el(c.tolist()) for c in vec]
        assert [bool(coords[f]) for f in free] == [f == j for f in free]
        assert next(c for c in coords if c) == ctx.one()
        assert not any(x for (x,) in slow_matmul(rows_a, [[c] for c in coords]))
    if a.rows == a.cols:
        expect = slow_inverse(rows_a)
        if expect is None:
            with pytest.raises(ZeroDivisionError):
                a.inv()
        else:
            assert as_fel_rows(a.inv()) == expect


def test_kernel_vectors_annihilated_and_sized():
    stream = CounterStream(13)
    for _ in range(20):
        mat = random_mat(F9, 5, 7, stream)
        kernel = mat.kernel_array()
        assert kernel.shape[0] == mat.cols - mat.rank()
        for vec in kernel:
            col = MatF(F9, vec[:, None, :])
            assert (mat @ col).is_zero()


def test_inverse_roundtrip():
    stream = CounterStream(17)
    found = 0
    while found < 10:
        mat = random_mat(F9, 5, 5, stream)
        try:
            inv = mat.inv()
        except ZeroDivisionError:
            continue
        found += 1
        assert mat @ inv == MatF.identity(F9, 5)


def test_rank_product_bound():
    stream = CounterStream(19)
    for _ in range(20):
        a = random_mat(F5, 6, 4, stream)
        b = random_mat(F5, 4, 6, stream)
        assert (a @ b).rank() <= min(a.rank(), b.rank())


def test_jordan_type_canonical_blocks():
    jt = JordanType.from_blocks(3, [3, 1])
    n = canonical_nilpotent(F3, jt)
    assert jordan_type_nilpotent(n, 3) == jt
    assert str(jt) == "[3][1]"


def _partitions(total, max_part):
    if total == 0:
        yield []
        return
    for part in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - part, part):
            yield [part] + rest


@pytest.mark.parametrize("p", [3, 5])
def test_jordan_roundtrip_exhaustive(p):
    ctx = field_create(p, 1)
    for total in range(1, 13):
        for blocks in _partitions(total, p):
            jt = JordanType.from_blocks(p, blocks)
            assert jordan_type_nilpotent(canonical_nilpotent(ctx, jt), p) == jt


@pytest.mark.parametrize("p", [3, 5])
def test_jordan_type_rank_matches_powers(p):
    ctx = field_create(p, 1)
    for total in range(1, 9):
        for blocks in _partitions(total, p):
            jt = JordanType.from_blocks(p, blocks)
            nil = as_fel_rows(canonical_nilpotent(ctx, jt))
            power = [[ctx.one() if i == j else ctx.zero() for j in range(total)] for i in range(total)]
            for e in range(p + 1):
                assert jt.rank(e) == slow_rank(power), (blocks, e)
                power = slow_matmul(power, nil)


def test_jordan_conjugation_invariant():
    stream = CounterStream(23)
    jt = JordanType.from_blocks(3, [3, 2, 2, 1])
    n = canonical_nilpotent(F9, jt)
    found = 0
    while found < 8:
        p_mat = random_mat(F9, 8, 8, stream)
        try:
            p_inv = p_mat.inv()
        except ZeroDivisionError:
            continue
        found += 1
        assert jordan_type_nilpotent(p_mat @ n @ p_inv, 3) == jt


def test_not_nilpotent_raises():
    with pytest.raises(NotNilpotent):
        jordan_type_nilpotent(MatF.identity(F3, 2), 3)


def test_dominance_examples():
    g = dominance_compare(JordanType.from_blocks(3, [3, 1]), JordanType.from_blocks(3, [2, 2]))
    assert g is Dominance.GREATER
    inc = dominance_compare(
        JordanType.from_blocks(3, [3, 1, 1, 1]), JordanType.from_blocks(3, [2, 2, 2])
    )
    assert inc is Dominance.INCOMPARABLE
    eq = dominance_compare(JordanType.from_blocks(3, [2, 2]), JordanType.from_blocks(3, [2, 2]))
    assert eq is Dominance.EQUAL
    assert dominance_compare(
        JordanType.from_blocks(3, [2, 2]), JordanType.from_blocks(3, [3, 1])
    ) is Dominance.LESS


def test_dominance_unequal_totals():
    with pytest.raises(UnequalTotals):
        dominance_compare(JordanType.from_blocks(3, [3]), JordanType.from_blocks(3, [2, 2]))


def test_compound_identity_and_multiplicativity():
    assert compound_matrix(MatF.identity(F3, 4), 2) == MatF.identity(F3, 6)
    stream = CounterStream(29)
    for _ in range(5):
        a = random_mat(F9, 5, 5, stream)
        b = random_mat(F9, 5, 5, stream)
        for r in (2, 3):
            lhs = compound_matrix(a @ b, r)
            rhs = compound_matrix(a, r) @ compound_matrix(b, r)
            assert lhs == rhs


@pytest.mark.parametrize("ctx", [F3, F8, F9, F25])
def test_compound_matches_leibniz_on_dense_matrices(ctx):
    stream = CounterStream(31, ctx.q)
    for n in (1, 4, 7):
        a = random_mat(ctx, n, n, stream)
        for r in range(0, n + 2):
            assert compound_matrix(a, r) == leibniz_compound(a, r)


@pytest.mark.parametrize("ctx", [F3, F8, F9, F25])
def test_combine_matches_slow_combination(ctx):
    """Stacks of B coefficient rows, some all zero, against the Fel sum row by row."""
    stream = CounterStream(37, ctx.q)
    for count, terms, rows, cols in [(1, 1, 1, 1), (4, 3, 2, 5), (3, 7, 4, 4)]:
        coeffs = np.array([[ctx.from_code(stream.below(ctx.q)) for _ in range(terms)]
                           for _ in range(count)])
        coeffs[count // 2] = 0
        mats = [random_mat(ctx, rows, cols, stream) for _ in range(terms)]
        got = combine(ctx, coeffs, np.array([g.data for g in mats]))
        assert got.shape == (count, rows, cols, ctx.m)
        for row, out in zip(coeffs, got):
            draws = [ctx.el(tuple(c)) for c in row.tolist()]
            want = slow_combination(draws, [as_fel_rows(g) for g in mats])
            assert as_fel_rows(MatF(ctx, out)) == want
    # K = 2 terms of 2 (p-1)^2 each pass 2^53 at p = 2^26 - 5, m = 2
    big = FieldCtx(2**26 - 5, 2, (1, 0, 1))
    with pytest.raises(BadParams, match=r"p=67108859, m=2 .*n=2"):
        combine(big, np.ones((1, 2, 2), dtype=np.int64), np.ones((2, 1, 1, 2), dtype=np.int64))


def test_jordan_type_free_flag():
    assert JordanType.from_blocks(3, [3, 3]).is_free()
    assert not JordanType.from_blocks(3, [3, 1]).is_free()
    # the zero module is free of rank 0
    assert JordanType.from_blocks(3, []).is_free()


def test_matmul_refuses_int64_overflow():
    # products are float64 on the F_p expansion, exact while n m (p-1)^2 <= 2^53;
    # at p = 2^26 - 5 that allows n = 2 for m = 1 and n = 1 for m = 2
    big = FieldCtx(2**26 - 5, 1, (0, 1))
    for n in (3, 4):
        a = MatF(big, np.full((n, n, 1), big.p - 1, dtype=np.int64))
        with pytest.raises(ValueError, match=rf"p=67108859, m=1 .*n={n}"):
            a @ a
    # two terms of (p-1)^2 sum to 2^53 - 24 * 2^26 + 72, still exact
    b = MatF(big, np.full((2, 2, 1), big.p - 1, dtype=np.int64))
    assert (b @ b).get(0, 0) == big.el(2)
    assert b.rank() == 1
    ext = FieldCtx(big.p, 2, (1, 0, 1))  # x^2 + 1, p = 3 mod 4
    x = ext.el((big.p - 1, big.p - 1))
    one = MatF.from_rows(ext, [[x]])
    assert (one @ one).get(0, 0) == x * x
    # elementwise products sum m terms of at most (p-1)^2 twice, reducing between;
    # a combination of K = 1 matrix sums K m of them in one float64 product
    assert one.kron(one).get(0, 0) == x * x
    combined = combine(ext, np.array([[x.coeffs]]), one.data[None])
    assert MatF(ext, combined[0]).get(0, 0) == x * x
    with pytest.raises(ValueError, match=r"p=67108859, m=2 .*n=2"):
        MatF.from_rows(ext, [[x, x]]) @ MatF.from_rows(ext, [[x], [x]])


@st.composite
def conjugated_nilpotents(draw):
    """A Jordan type of total at most 8 and a random invertible matrix over F_3, F_9 or F_25."""
    ctx = draw(st.sampled_from([F3, F9, F25]))
    blocks = draw(st.lists(st.integers(1, ctx.p), min_size=1, max_size=4).filter(lambda b: sum(b) <= 8))
    n = sum(blocks)
    codes = draw(st.lists(st.sampled_from(range(ctx.q)), min_size=n * n, max_size=n * n))
    conj = [[ctx.el(ctx.from_code(codes[i * n + j])) for j in range(n)] for i in range(n)]
    assume(slow_rank(conj) == n)
    return ctx, JordanType.from_blocks(ctx.p, blocks), conj


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(conjugated_nilpotents())
def test_jordan_type_conjugation_property(case):
    ctx, jt, conj = case
    p = ctx.p
    nil = slow_matmul(slow_matmul(conj, as_fel_rows(canonical_nilpotent(ctx, jt))), slow_inverse(conj))
    expect = JordanType(p, slow_jordan_mult(nil, p))
    assert expect == jt
    assert jordan_type_nilpotent(MatF.from_rows(ctx, nil), p) == expect


def test_elim_dtype_bounds():
    # the narrowest signed dtype holding c (p-1)^2 + p, chosen without allocating
    assert elim_dtype(3, 31) == np.int8  # 31 * 4 + 3 = 127
    assert elim_dtype(3, 63) == np.int16  # 255
    assert elim_dtype(7, 910) == np.int16  # 910 * 36 + 7 = 32767
    assert elim_dtype(7, 1848) == np.int32  # D(6) at (7, 2) over F_49
    big = 2**26 - 5
    assert elim_dtype(big, 2**11) == np.int64
    with pytest.raises(BadParams, match="int64"):
        elim_dtype(big, 2**12)


def _invertible(ctx, n, stream):
    """A random unit lower times unit upper triangular n x n matrix, as Fel rows."""
    def entry():
        return ctx.el(ctx.from_code(stream.below(ctx.q)))
    lower = [[entry() if j < i else ctx.el(int(i == j)) for j in range(n)] for i in range(n)]
    upper = [[entry() if j > i else ctx.el(int(i == j)) for j in range(n)] for i in range(n)]
    return slow_matmul(lower, upper)


@st.composite
def elimination_stacks(draw):
    """B matrices of one shape over F_{p^m}: zero, full-rank and rank-deficient members.

    A member of rank k is the first k columns of a random invertible P
    times the first k rows of a random invertible Q, so its rank is
    exactly k.  Stacks of three or more start with one of each kind.
    """
    ctx = field_create(draw(st.sampled_from([2, 3, 5, 7])), draw(st.sampled_from([1, 2, 3])))
    count = draw(st.sampled_from([1, 3, 17]))
    rows, cols = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    top = min(rows, cols)
    kinds = [0, top, draw(st.integers(1, top - 1))]
    ranks = kinds[:count] if count > 1 else [draw(st.sampled_from(kinds))]
    ranks += [draw(st.integers(0, top)) for _ in range(count - len(ranks))]
    stream = CounterStream(draw(st.integers(0, 2**32 - 1)))
    members = []
    for k in ranks:
        left = [row[:k] for row in _invertible(ctx, rows, stream)]
        right = _invertible(ctx, cols, stream)[:k]
        members.append(slow_matmul(left, right) if k else
                       [[ctx.zero()] * cols for _ in range(rows)])
    return ctx, ranks, members


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(elimination_stacks())
def test_eliminate_stack_matches_oracles(case):
    ctx, ranks, members = case
    cols = len(members[0][0])
    dtype = elim_dtype(ctx.p, cols * ctx.m)
    # coefficient planes: (B, r, m, c)
    stack = np.stack([MatF.from_rows(ctx, rows).data.transpose(0, 2, 1) for rows in members])
    stack = stack.astype(dtype, order="C")
    assert _ranks(ctx, stack.copy()).tolist() == ranks == [slow_rank(rows) for rows in members]
    pivcol = _eliminate(ctx, stack, full=True)
    for work, pivots, rows in zip(stack, pivcol, members):
        reduced, expect = slow_rref(rows)
        assert np.array_equal(work.transpose(0, 2, 1), MatF.from_rows(ctx, reduced).data)
        assert pivots.tolist() == expect + [-1] * (len(pivots) - len(expect))


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_pivot_blocks_scale_every_lead_to_powers_of_w(p, m, monkeypatch):
    # entry (n, s) is the multiplication block of w^s / lead[n], checked
    # against Fel arithmetic on a fresh memo, a filled one and a capped one
    ctx = field_create(p, m)
    monkeypatch.setattr(linalg, "_PIVOTS", {})
    lead = np.array([ctx.from_code(c) for c in range(1, ctx.q)])
    powers = [ctx.cpow(ctx.gen().coeffs, s) for s in range(m)]
    for cap, leads in ((2 ** 16, lead), (2 ** 16, lead), (2, lead[:1])):
        monkeypatch.setattr(linalg, "_PIVOTS_CAP", cap)
        blocks = _pivot_blocks(ctx, leads, np.int8)
        assert blocks.dtype == np.int8 and blocks.min() >= 0 and blocks.max() < p
        for x, scaled in zip(leads.tolist(), blocks.astype(np.int64)):
            inverse = ctx.cinv(tuple(x))
            for s in range(m):
                assert tuple(scaled[s] @ x % p) == powers[s]
                assert tuple(scaled[s][:, 0]) == ctx.cmul(powers[s], inverse)
    # the capped call found q - 1 > 2 leads in the memo and started over
    assert len(linalg._PIVOTS[ctx]) == 1


@pytest.mark.parametrize("dtype,bits", [(np.float32, 24), (np.float64, 53)])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 251, 8191])
def test_float_mod_is_exact_up_to_the_mantissa(dtype, bits, p):
    top = 2 ** bits
    near = top // p * p - 1 - p * np.arange(50)  # remainder p - 1, just under the top
    ints = np.concatenate([
        np.arange(4 * p), near, near + 1, top - np.arange(50),
        np.random.default_rng(p).integers(0, top, 2000),
    ])
    x = ints.astype(dtype)
    assert np.array_equal(x.astype(np.int64), ints)
    assert float_mod(x, p) is x
    assert np.array_equal(x.astype(np.int64), ints % p)


def test_jordan_types_of_a_stack():
    ctx = F9
    stream = CounterStream(31)
    blocks = [[3, 3, 2], [2, 2, 2, 2], [1] * 8, [3, 2, 1, 1, 1], [3, 3, 1, 1]]
    stack = []
    for b in blocks:
        while True:
            conj = random_mat(ctx, 8, 8, stream)
            try:
                inv = conj.inv()
            except ZeroDivisionError:
                continue
            break
        nil = conj @ canonical_nilpotent(ctx, JordanType.from_blocks(3, b)) @ inv
        stack.append(expand(ctx, nil.data, np.int64))
    types = jordan_types(ctx, np.stack(stack), 3)
    assert types == [JordanType.from_blocks(3, b) for b in blocks]
    assert jordan_types(ctx, np.zeros((0, 16, 16), dtype=np.int64), 3) == []
    # one member that is not nilpotent fails the whole stack
    stack[2] = expand(ctx, MatF.identity(ctx, 8).data, np.int64)
    with pytest.raises(NotNilpotent):
        jordan_types(ctx, np.stack(stack), 3)


@pytest.mark.parametrize("p,m,rows,cols", [
    pytest.param(3, 1, 40, 31, id="3-40-31"),
    pytest.param(5, 1, 12, 7, id="5-12-7"),
    pytest.param(2, 1, 30, 125, id="2-30-125"),
    pytest.param(2, 5, 30, 25, id="2^5-30-25"),
    pytest.param(3, 2, 40, 15, id="3^2-40-15"),
])
def test_eliminate_at_the_edge_of_its_dtype(p, m, rows, cols):
    # cols m (p-1)^2 + p is just inside int8 (exactly 127 but for 3^2, the
    # widest int8 case over F_9): dense rows take many unreduced updates
    # before they pivot, so a step that skipped a reduction overflows
    ctx = field_create(p, m)
    assert elim_dtype(p, cols * m) == np.int8 and elim_dtype(p, (cols + 1) * m) == np.int16
    stream = CounterStream(37, p)
    mats = [random_mat(ctx, rows, cols, stream) for _ in range(3)]
    stack = np.stack([mat.data.transpose(0, 2, 1) for mat in mats]).astype(np.int8, order="C")
    pivcol = _eliminate(ctx, stack, full=True)
    for mat, work, pivots in zip(mats, stack, pivcol):
        reduced, expect = slow_rref(as_fel_rows(mat))
        assert work.transpose(0, 2, 1).tolist() == [[list(x.coeffs) for x in row] for row in reduced]
        assert pivots[pivots >= 0].tolist() == expect
        assert mat.rank() == len(expect)
