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

from oracles import brute_irreducible


def test_prime_field_placeholder_irr():
    f3 = field_create(3, 1)
    assert (f3.p, f3.m, f3.irr) == (3, 1, (0, 1))


def test_f9_least_irreducible_is_x2_plus_1():
    f9 = field_create(3, 2)
    assert f9.irr == (1, 0, 1)
    w = f9.gen()
    assert w * w == f9.el(2)


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
    ctx = field_create(p, m)
    els = list(ctx.elements())
    assert len(els) == p ** m
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
    one = ctx.one()
    for x in ctx.elements():
        assert x ** ctx.q == x
        if x:
            assert x * x.inverse() == one
        assert x + (-x) == ctx.zero()


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
    assert exp[0] == ctx.code(ctx.cone())
    els = [ctx.el(ctx.from_code(c)) for c in range(q)]
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
    # g is the least code whose Fel powers g^((q-1)/r) are not 1, and exp
    # lists g^0, g^1, ... by Fel multiplication
    ctx = field_create(p, m)
    order = ctx.q - 1
    primes = [r for r in range(2, order + 1) if order % r == 0 and is_prime(r)]
    g = next(ctx.el(ctx.from_code(c)) for c in range(1, ctx.q)
             if all(ctx.el(ctx.from_code(c)) ** (order // r) != 1 for r in primes))
    expect, power = [], ctx.one()
    for _ in range(order):
        expect.append(ctx.code(power.coeffs))
        power = power * g
    exp, log = ctx.code_logs()
    assert exp.tolist() == expect
    assert log[exp].tolist() == list(range(order)) and log[0] == 0


def test_from_codes_is_from_code_on_arrays():
    ctx = field_create(5, 2)
    codes = np.arange(25).reshape(5, 5)
    assert ctx.from_codes(codes).tolist() == [[list(ctx.from_code(c)) for c in row] for row in codes.tolist()]


def test_irreducibility_examples():
    assert poly_is_irreducible(3, [1, 0, 1])       # x^2 + 1
    assert not poly_is_irreducible(3, [-1, 0, 1])  # x^2 - 1
    assert poly_is_irreducible(3, [0, 1])          # x
    assert poly_is_irreducible(2, [1, 1, 1])       # x^2 + x + 1
    assert not poly_is_irreducible(2, [1, 0, 1])   # (x + 1)^2


# poly_is_irreducible works over the prime field, so m is 1 throughout
@pytest.mark.parametrize("p,m,deg", [(3, 1, 2), (3, 1, 3), (3, 1, 4), (5, 1, 2), (2, 1, 6)])
def test_irreducibility_against_trial_division(p, m, deg):
    for low in product(range(p), repeat=deg):
        f = list(low) + [1]
        assert poly_is_irreducible(p, f) == brute_irreducible(p, f)


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
