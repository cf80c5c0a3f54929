import math
from itertools import product

import numpy as np
import pytest

from eamod import gf
from eamod import symrep as sr
from eamod.cli import main
from eamod.gf import (
    BadParams,
    DegreeOutOfRange,
    FieldCtx,
    NonPrime,
    field_create,
    is_prime,
    poly_is_irreducible,
)
from eamod.gf import arr_mul

from oracles import brute_irreducible, code, el, elements, from_code, gen, one, zero


def test_prime_field_placeholder_irr():
    f3 = field_create(3, 1)
    assert (f3.p, f3.m, f3.irr) == (3, 1, (0, 1))


def test_f9_least_irreducible_is_x2_plus_1():
    f9 = field_create(3, 2)
    assert f9.irr == (1, 0, 1)
    w = gen(f9)
    assert w * w == el(f9, 2)


def test_composite_modulus_rejected():
    with pytest.raises(NonPrime):
        field_create(4, 1)


@pytest.mark.parametrize("m", [0, 9, -1])
def test_degree_out_of_range(m):
    with pytest.raises(DegreeOutOfRange):
        field_create(3, m)


def test_field_create_deterministic():
    a = field_create(5, 3)
    b = field_create(5, 3)
    assert a == b and a.irr == b.irr


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (3, 2), (7, 1), (3, 3), (5, 2)])
def test_field_axioms_exhaustive(p, m):
    # the oracle's El arithmetic, and arr_mul against it on every pair
    ctx = field_create(p, m)
    els = elements(ctx)
    assert len(els) == p ** m
    a, b = (np.array(x, dtype=np.int64) for x in zip(*product(els, repeat=2)))
    assert arr_mul(ctx, a, b).tolist() == [list(x * y) for x, y in product(els, repeat=2)]
    for a in els:
        for b in els:
            assert a + b == b + a
            assert a * b == b * a
    for a in els:
        for b in els:
            for c in els:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


def test_field_axioms_f81_vectorized():
    # all 81^3 triples, through the batched coefficient arithmetic
    ctx = field_create(3, 4)
    q = ctx.q
    codes = np.array([ctx.from_code(c) for c in range(q)], dtype=np.int64)
    idx = np.arange(q ** 3)
    a = codes[idx % q]
    b = codes[(idx // q) % q]
    c = codes[(idx // (q * q)) % q]
    lhs = arr_mul(ctx, a, (b + c) % 3)
    rhs = (arr_mul(ctx, a, b) + arr_mul(ctx, a, c)) % 3
    assert np.array_equal(lhs, rhs)
    assert np.array_equal(arr_mul(ctx, arr_mul(ctx, a, b), c), arr_mul(ctx, a, arr_mul(ctx, b, c)))


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (3, 4)])
def test_inverse_and_frobenius(p, m):
    ctx = field_create(p, m)
    for x in elements(ctx):
        assert x ** ctx.q == x
        if x:
            assert x * x.inverse() == one(ctx)
        assert x + (-x) == zero(ctx)


def _monic_irreducibles(p, m):
    return [low + (1,) for low in product(range(p), repeat=m) if poly_is_irreducible(p, low + (1,))]


# every monic irreducible of F_4, F_8, F_9, F_25 and F_27 (x^2 + 1 over
# F_3, for one, has a root of order 4, not 8), and the prime fields F_2, F_3
TABLE_FIELDS = [FieldCtx(p, 1, (0, 1)) for p in (2, 3)] + [
    FieldCtx(p, m, irr) for p, m in ((2, 2), (2, 3), (3, 2), (5, 2), (3, 3)) for irr in _monic_irreducibles(p, m)
]


@pytest.mark.parametrize("ctx", TABLE_FIELDS, ids=repr)
def test_code_logs_against_fel(ctx):
    exp, log = ctx.code_logs()
    q, order = ctx.q, ctx.q - 1
    nonzero = np.arange(1, q)
    # inverse bijections between 0..q-2 and the nonzero codes
    assert sorted(exp.tolist()) == nonzero.tolist()
    assert np.array_equal(log[exp], np.arange(order))
    assert np.array_equal(exp[log[nonzero]], nonzero)
    assert exp[0] == 1
    els = [from_code(ctx, c) for c in range(q)]
    g = els[exp[1 % order]]
    assert all(g ** (order // r) != 1 for r in range(2, order + 1) if order % r == 0 and is_prime(r))
    a, b = (x.ravel() for x in np.meshgrid(nonzero, nonzero))
    products = exp[(log[a] + log[b]) % order]
    assert all(els[c] == els[x] * els[y] for c, x, y in zip(products.tolist(), a.tolist(), b.tolist()))
    inverses = exp[-log[nonzero] % order]
    powers = exp[ctx.p * log[nonzero] % order]
    for x, inv, power in zip(nonzero.tolist(), inverses.tolist(), powers.tolist()):
        assert els[inv] == els[x].inverse() and els[power] == els[x] ** ctx.p
    assert ctx.code_logs() is ctx.code_logs()


# every extension field F_{p^m} up to F_{3^8} (q <= 6561), and four prime fields
LOG_FIELDS = [(p, 1) for p in (2, 3, 5, 8191)] + [
    (p, m) for m in range(2, 9) for p in range(2, 82) if is_prime(p) and p ** m <= 3 ** 8
]


@pytest.mark.parametrize("p,m", LOG_FIELDS, ids=[f"F_{p}^{m}" for p, m in LOG_FIELDS])
def test_code_logs_match_fel_powers(p, m):
    # g is the least code whose El powers g^((q-1)/r) are not 1, and exp
    # lists g^0, g^1, ... by El multiplication
    ctx = field_create(p, m)
    order = ctx.q - 1
    primes = [r for r in range(2, order + 1) if order % r == 0 and is_prime(r)]
    g = next(from_code(ctx, c) for c in range(1, ctx.q)
             if all(from_code(ctx, c) ** (order // r) != 1 for r in primes))
    expect, power = [], one(ctx)
    for _ in range(order):
        expect.append(code(power))
        power = power * g
    exp, log = ctx.code_logs()
    assert exp.tolist() == expect
    assert log[exp].tolist() == list(range(order)) and log[0] == 0


def test_from_codes_is_from_code_on_arrays():
    ctx = field_create(5, 2)
    codes = np.arange(25).reshape(5, 5)
    assert ctx.from_codes(codes).tolist() == [[list(ctx.from_code(c)) for c in row] for row in codes.tolist()]
    assert np.array_equal(ctx.to_codes(ctx.from_codes(codes)), codes)
    assert [ctx.to_codes(from_code(ctx, c)) for c in range(25)] == list(range(25))


def test_coerce_reads_ints_and_coefficient_vectors():
    f9 = field_create(3, 2)
    w = gen(f9)
    assert f9.coerce(5).tolist() == [2, 0] and f9.coerce(-1).tolist() == [2, 0]
    assert f9.coerce(10 ** 30).tolist() == [10 ** 30 % 3, 0]
    assert f9.coerce([4, -1]).tolist() == list(el(f9, [1, 2]))
    # axes fixes the depth of the elements: ints at that depth are constants
    assert f9.coerce([[1, 2], [3, 4]], 1).tolist() == [[1, 2], [0, 1]]
    assert f9.coerce([[1, 2], [3, 4]], 2).tolist() == [[[1, 0], [2, 0]], [[0, 0], [1, 0]]]
    assert f9.coerce([1, w * w, [0, 2]], 1).tolist() == [list(one(f9)), list(w * w), list(2 * w)]
    assert f9.coerce([[0, w], [np.array([1, 1]), 2]], 2).tolist() == [[[0, 0], [0, 1]], [[1, 1], [2, 0]]]
    assert f9.coerce([], 1).shape == (0, 2) and f9.coerce([], 2).shape == (0, 0, 2)
    assert f9.coerce(np.arange(6).reshape(3, 2), 1).dtype == np.int64
    for values, axes in (([1, 2, 3], 0), ([[1], [1, 2]], 1), ([[1, 2], [1]], 2), ([1, [1, 0, 0]], 1),
                         ([[[1, 2]]], 1)):
        with pytest.raises(ValueError):
            f9.coerce(values, axes)


def test_irreducibility_examples():
    assert poly_is_irreducible(3, [1, 0, 1])       # x^2 + 1
    assert not poly_is_irreducible(3, [-1, 0, 1])  # x^2 - 1
    assert poly_is_irreducible(3, [0, 1])          # x
    assert poly_is_irreducible(2, [1, 1, 1])       # x^2 + x + 1
    assert not poly_is_irreducible(2, [1, 0, 1])   # (x + 1)^2


# poly_is_irreducible works over the prime field, so m is 1 throughout
@pytest.mark.parametrize("p,m,deg", [(3, 1, 2), (3, 1, 3), (3, 1, 4), (5, 1, 2), (2, 1, 6), (2, 1, 1),
                                     (2, 1, 7), (2, 1, 8), (3, 1, 5), (5, 1, 3), (7, 1, 2), (7, 1, 3)])
def test_irreducibility_against_trial_division(p, m, deg):
    for low in product(range(p), repeat=deg):
        f = list(low) + [1]
        assert poly_is_irreducible(p, f) == brute_irreducible(p, f)


@pytest.mark.parametrize("p,deg", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3)])
def test_irreducibility_of_non_monic_and_padded_inputs(p, deg):
    # the test scales f to monic and trims trailing zeros, also those that are zero only mod p
    for low in product(range(p), repeat=deg):
        for lead in range(2, p):
            f = list(low) + [lead]
            expect = brute_irreducible(p, f)
            assert poly_is_irreducible(p, f) == expect
            assert poly_is_irreducible(p, [c - p for c in f] + [0, p, -p]) == expect
        assert poly_is_irreducible(p, list(low) + [1, 0]) == brute_irreducible(p, list(low) + [1])
    with pytest.raises(ValueError, match="degree"):
        poly_is_irreducible(p, [p - 1, p, 0])


def test_irreducibility_refuses_bad_moduli(monkeypatch):
    # a composite p once sent the Euclid loop of the list helpers into an endless loop
    for p, f in ((4, [2, 0, 1]), (6, [1, 0, 1]), (1, [1, 0, 1]), (9, [1, 0, 1]), (0, [1, 1])):
        with pytest.raises(NonPrime, match=f"{p} is not prime"):
            poly_is_irreducible(p, f)

    def arithmetic(*args):
        raise AssertionError("arithmetic past the float64 bound")

    monkeypatch.setattr(gf, "_block_power", arithmetic)
    monkeypatch.setattr(gf, "is_prime", arithmetic)
    for p, f in ((2 ** 61 - 1, [3, 0, 1]), (2 ** 26 - 5, [1, 1, 0, 1]), (2 ** 32 + 15, [0, 1])):
        with pytest.raises(BadParams, match="overflow"):
            poly_is_irreducible(p, f)


def test_is_prime_against_divisors():
    assert [n for n in range(-3, 200) if is_prime(n)] == [
        n for n in range(2, 200) if all(n % d for d in range(2, n))]
    assert is_prime(2 ** 31 - 1) and not is_prime(2 ** 31 + 1) and not is_prime(97 * 89)


# the lexicographically least monic irreducibles, as the earlier Euclid-based test found them
FIELD_IRR = {
    (2, 3): (1, 1, 0, 1), (3, 3): (1, 2, 0, 1), (5, 2): (2, 0, 1), (11, 3): (4, 1, 0, 1), (97, 3): (2, 0, 0, 1),
    (257, 2): (3, 0, 1), (7, 4): (1, 1, 0, 0, 1), (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (3, 8): (2, 0, 1, 0, 0, 0, 0, 0, 1), (5, 8): (2, 0, 0, 0, 0, 0, 0, 0, 1),
}


@pytest.mark.parametrize("p,m", list(FIELD_IRR), ids=[f"F_{p}^{m}" for p, m in FIELD_IRR])
def test_field_create_keeps_its_irreducible(p, m):
    assert field_create(p, m).irr == FIELD_IRR[p, m]


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (2, 8), (3, 8), (7, 4)])
def test_regular_is_multiplication_by_powers_of_w(p, m):
    # column b of C^t is w^(t+b), by the oracle's convolution and reduction by irr
    ctx = field_create(p, m)
    w = gen(ctx)
    regular = ctx.regular()
    assert regular.shape == (m, m, m) and regular.dtype == np.int64
    for t in range(m):
        assert [regular[t][:, b].tolist() for b in range(m)] == [list(w ** (t + b)) for b in range(m)]


def test_gf_keeps_no_list_polynomial_helpers():
    assert not [name for name in vars(gf) if name.startswith("_fp_")]


def test_field_refuses_reducible_or_nonprime():
    with pytest.raises(ValueError, match="reducible"):
        FieldCtx(3, 2, (2, 0, 1))  # x^2 - 1
    with pytest.raises(NonPrime):
        FieldCtx(4, 1, (0, 1))
    with pytest.raises(NonPrime):
        FieldCtx.from_dict({"p": 9, "m": 2, "irr": [1, 0, 1]})
    with pytest.raises(DegreeOutOfRange):
        FieldCtx(3, 0, (1,))


def test_field_serialization_roundtrip():
    f25 = field_create(5, 2)
    assert FieldCtx.from_dict(f25.to_dict()) == f25


def test_field_refuses_int64_overflow():
    # products are float64 on the F_p expansion: one term per inner
    # coordinate, m (p-1)^2 in all, must stay within 2^53
    with pytest.raises(ValueError, match="overflow"):
        FieldCtx.from_dict({"p": 2**32 + 15, "m": 1, "irr": [0, 1]})
    with pytest.raises(ValueError, match="overflow"):
        FieldCtx(2**31 - 1, 2, (7, 0, 1))
    with pytest.raises(ValueError, match="overflow"):
        FieldCtx(2**31 - 1, 1, (0, 1))
    with pytest.raises(ValueError, match="overflow"):
        FieldCtx(2**26 - 5, 3, (1, 1, 0, 1))
    assert FieldCtx(2**26 - 5, 1, (0, 1)).max_inner == 2
    assert FieldCtx(2**26 - 5, 2, (1, 0, 1)).max_inner == 1


def test_field_create_refuses_past_the_float64_bound_before_searching(monkeypatch):
    def searched(p, coeffs):
        raise AssertionError("searched for an irreducible")

    monkeypatch.setattr(gf, "poly_is_irreducible", searched)
    with pytest.raises(BadParams):
        field_create(2 ** 26 - 5, 3)
    # m = 1: the largest prime with (p-1)^2 <= 2^53 is accepted, the next refused
    below = math.isqrt(2 ** 53) + 1
    while not is_prime(below):
        below -= 1
    above = below + 1
    while not is_prime(above):
        above += 1
    assert field_create(below, 1).max_inner == 2 ** 53 // (below - 1) ** 2 >= 1
    with pytest.raises(BadParams):
        field_create(above, 1)


def test_the_float64_bound_comes_before_trial_division(monkeypatch, capsys):
    # is_prime divides up to sqrt(p): about two minutes at p = 2^61 - 1,
    # which the bound refuses at any m.  Checked first, it caps trial
    # division at p <= isqrt(2^53) + 1, about 9.5e7
    bound = math.isqrt(2 ** 53) + 1
    trial_division = gf.is_prime

    def bounded(n):
        assert n <= bound, f"trial division of {n}, past the float64 bound"
        return trial_division(n)

    monkeypatch.setattr(gf, "is_prime", bounded)
    big = 2 ** 61 - 1
    for make in (lambda: FieldCtx(big, 1, (0, 1)), lambda: FieldCtx(big + 2, 2, (1, 0, 1)),
                 lambda: FieldCtx.from_dict({"p": big, "m": 1, "irr": [0, 1]}),
                 lambda: field_create(big, 1), lambda: field_create(big, 0), lambda: sr.SymContext(big, 2)):
        with pytest.raises(BadParams, match="overflow"):
            make()
    for argv in (["build", "dr", "--p", str(big), "--k", "2", "-r", "1", "--out", "x.json"],
                 ["verify", "--suite", "green", "--p", str(big)]):
        assert main(argv) == 2 and "overflow" in capsys.readouterr().err
    # up to the bound the primality test still decides
    below = bound
    while not trial_division(below):
        below -= 1
    assert field_create(below, 1).p == below
    with pytest.raises(NonPrime):
        FieldCtx(bound, 1, (0, 1))
    with pytest.raises(NonPrime):
        sr.SymContext(1, 2)
