"""Scalar arithmetic against independent big-integer oracles."""

import pytest

from iwa.errors import (
    DegenerateInput,
    DivideByZero,
    InvalidParameter,
    InvalidResidue,
    PrecisionExhausted,
)
from iwa.padic import (
    INF,
    PadicScalar,
    QuadExtScalar,
    teichmuller,
    val_growth_constant,
    verify_val_growth,
)
from iwa.rng import SplitMix64


def int_val(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def scalar_of(x, p, N=12):
    return PadicScalar.from_int(x, p, N)


def test_zero_sentinel():
    z = PadicScalar.zero(3, 5)
    assert z.is_zero() and z.v == INF
    assert PadicScalar.from_int(0, 3, 5).is_zero()


def test_from_int_normalizes():
    x = PadicScalar.from_int(18, 3, 5)
    assert (x.v, x.u) == (2, 2)
    y = PadicScalar.from_int(-1, 5, 3)
    assert (y.v, y.u) == (0, 124)


def test_add_against_integer_oracle():
    rng = SplitMix64(101)
    for p in (3, 5, 7):
        for _ in range(200):
            a = rng.randrange(-(p**6), p**6)
            b = rng.randrange(-(p**6), p**6)
            s = scalar_of(a, p) + scalar_of(b, p)
            if a + b == 0:
                assert s.is_zero()
            else:
                v = int_val(a + b, p)
                assert s.v == v
                assert ((a + b) // p**v - s.u) % p ** s.N == 0


def test_mul_against_integer_oracle():
    rng = SplitMix64(102)
    for p in (3, 5):
        for _ in range(200):
            a = rng.randrange(1, p**6)
            b = rng.randrange(1, p**6)
            m = scalar_of(a, p) * scalar_of(b, p)
            v = int_val(a * b, p)
            assert m.v == v
            assert (a * b // p**v - m.u) % p**m.N == 0


def test_cancellation_adjusts_precision():
    # 121 + 122 = 243 = 3^5: every digit below the cap cancels
    x = PadicScalar.from_int(121, 3, 5)
    y = PadicScalar.from_int(122, 3, 5)
    assert (x + y).is_zero()
    # partial cancellation: 1 + 8 = 9 keeps N-2 digits at valuation 2
    a = PadicScalar.from_int(1, 3, 5) + PadicScalar.from_int(8, 3, 5)
    assert (a.v, a.N) == (2, 3)
    assert a.u == 1


def test_add_never_overclaims_absolute_precision():
    rng = SplitMix64(103)
    p = 3
    for _ in range(300):
        a = PadicScalar(p, rng.randrange(-3, 4), 1 + p * rng.randbelow(p**6), 8)
        b = PadicScalar(p, rng.randrange(-3, 4), 1 + p * rng.randbelow(p**6), 8)
        s = a + b
        if not s.is_zero():
            assert s.abs_precision() <= min(a.abs_precision(), b.abs_precision())
            assert s.v >= min(a.v, b.v)
            if a.v != b.v:
                assert s.v == min(a.v, b.v)


def test_zero_keeps_absolute_precision():
    p = 3
    # full cancellation leaves 0 mod 3^5, not an exact zero
    z = PadicScalar.from_int(121, p, 5) + PadicScalar.from_int(122, p, 5)
    assert z.is_zero() and z.abs_precision() == 5
    assert PadicScalar.zero(p, 5).abs_precision() == INF
    o2 = PadicScalar.zero(p, 6, 2)  # 0 + O(3^2)
    # 0 + O(3^2) - 3^3 is zero: 3^3 is invisible mod 3^2
    d = o2 - PadicScalar.from_int(27, p, 6)
    assert d.is_zero() and d.abs_precision() == 2
    # 0 + O(3^2) + 4 is 4 mod 3^2: two digits left
    s = o2 + PadicScalar.from_int(4, p, 6)
    assert (s.v, s.u, s.N) == (0, 4, 2)
    # (0 + O(3^2)) * 3^-1 is O(3^1); times 3^2 * 5 it is O(3^4)
    q = o2 * PadicScalar.from_rational(1, 3, p, 6)
    assert q.is_zero() and q.abs_precision() == 1
    assert (o2 * PadicScalar.from_int(45, p, 6)).abs_precision() == 4
    assert (o2 * o2).abs_precision() == 4
    assert (o2 * PadicScalar.zero(p, 6)).abs_precision() == INF
    assert o2.shift(-3).abs_precision() == -1
    assert o2.truncate(3).abs_precision() == 2
    # zeros combine to the weaker precision
    assert (o2 + PadicScalar.zero(p, 6, 4)).abs_precision() == 2
    assert (o2 + PadicScalar.zero(p, 6)).abs_precision() == 2


def test_finite_zero_reduces_without_capping_digits():
    # 0 mod 3^41 carries N = 1, yet 1 + O(3^41) keeps its 40 digits; an
    # exact zero at N = 1 still caps them (the working-precision rule)
    p = 3
    one = PadicScalar.one(p, 40)
    assert (one + PadicScalar.zero(p, 1, 41)).identical(one)
    assert (PadicScalar.zero(p, 1, 41) + one).identical(one)
    assert (one + PadicScalar.zero(p, 1, 5)).N == 5
    assert (one + PadicScalar.zero(p, 1)).N == 1


def test_inverse_matches_extended_gcd():
    # inv(4) mod 3^4 = 61 since 4*61 = 244 = 3*81 + 1
    x = PadicScalar.from_int(4, 3, 4)
    assert x.inv().u == 61
    rng = SplitMix64(104)
    for p in (3, 5, 7):
        for _ in range(100):
            a = rng.randrange(1, p**5)
            if a % p == 0:
                continue
            s = scalar_of(a, p, 9)
            assert (s.inv().u * a - 1) % p**9 == 0
            assert s * s.inv() == 1
    with pytest.raises(DivideByZero):
        PadicScalar.zero(3, 4).inv()


def test_pow_and_shift():
    x = PadicScalar.from_int(7, 3, 10)
    assert x**5 == PadicScalar.from_int(7**5, 3, 10)
    assert x**0 == 1
    assert (x ** (-2)) * x * x == 1
    assert x.shift(3) == PadicScalar.from_int(7 * 27, 3, 10)
    assert x.shift(-1).v == -1


def test_field_axioms_sampled():
    rng = SplitMix64(105)
    p, N = 5, 8
    for _ in range(150):
        a = scalar_of(rng.randrange(1, p**4), p, N)
        b = scalar_of(rng.randrange(1, p**4), p, N)
        c = scalar_of(rng.randrange(1, p**4), p, N)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + (-a) == 0


def test_from_rational():
    # 1/2 in Z_3: 2 * inv == 1
    h = PadicScalar.from_rational(1, 2, 3, 6)
    assert h * 2 == 1
    q = PadicScalar.from_rational(9, 6, 3, 6)  # 3/2
    assert q * 2 == 3 and q.v == 1


def test_teichmuller_values_and_laws():
    # p=5, N=3: the lift of 2 is 57 = 2 + 5*11 with 57^4 = 1 mod 125
    w = teichmuller(2, 5, 3)
    assert w.u == 57
    assert pow(57, 4, 125) == 1
    for p, N in ((3, 8), (5, 6), (7, 5)):
        for a in range(1, p):
            t = teichmuller(a, p, N)
            assert t.u % p == a
            assert pow(t.u, p - 1, p**N) == 1
        # multiplicativity
        for a in range(1, p):
            for b in range(1, p):
                assert teichmuller(a, p, N) * teichmuller(b, p, N) == teichmuller(
                    a * b % p, p, N
                )
    with pytest.raises(InvalidResidue):
        teichmuller(10, 5, 4)
    with pytest.raises(InvalidParameter):
        teichmuller(1, 4, 4)


def test_teichmuller_is_the_fixed_point_of_the_p_th_power():
    # the fixed point of x -> x^p mod p^N reached from a, for every unit
    # residue; the Newton lift must give the same digits
    for p in (3, 5, 7, 11, 13):
        for N in range(1, 61):
            mod = p**N
            for a in range(1, p):
                x = a
                while pow(x, p, mod) != x:
                    x = pow(x, p, mod)
                assert teichmuller(a, p, N).identical(PadicScalar(p, 0, x, N))
    # far beyond: a^(p^(N-1)) mod p^N is the root, since p^(N-1) = 1 mod p-1
    N = 1000
    for p, residues in ((3, range(1, 3)), (5, range(1, 5)), (7, range(1, 7)), (31, (2, 30))):
        for a in residues:
            assert teichmuller(a, p, N).u == pow(a, p ** (N - 1), p**N)


def test_valuation_growth_frozen_cases():
    # v_3(4^9 - 1) = 3 = 2 + v_3(4-1); big-integer check: 4^9-1 = 262143 = 27*9709
    assert int_val(4**9 - 1, 3) == 3
    x = PadicScalar.from_int(4, 3, 20)
    assert val_growth_constant(x) == 1
    assert verify_val_growth(x, 2)
    # v_3(10^3 - 1) = 3 = 1 + v_3(10-1)
    assert int_val(10**3 - 1, 3) == 3
    y = PadicScalar.from_int(10, 3, 20)
    assert val_growth_constant(y) == 2
    assert verify_val_growth(y, 1)


def test_valuation_growth_random_against_bigint():
    rng = SplitMix64(106)
    for p in (3, 5):
        for _ in range(60):
            c = rng.randrange(1, 4)
            unit = rng.randrange(1, p**4)
            if unit % p == 0:
                unit += 1
            x0 = 1 + p**c * unit
            n = rng.randrange(1, 5)
            oracle = int_val(pow(x0, p**n) - 1, p)
            assert oracle == n + c
            x = PadicScalar.from_int(x0, p, 30)
            assert val_growth_constant(x) == c
            assert verify_val_growth(x, n)


def test_valuation_growth_guards():
    with pytest.raises(DegenerateInput):
        val_growth_constant(PadicScalar.one(3, 10))
    with pytest.raises(InvalidResidue):
        val_growth_constant(PadicScalar.from_int(2, 3, 10))
    with pytest.raises(PrecisionExhausted):
        verify_val_growth(PadicScalar.from_int(4, 3, 5), 10)


def quad(a, b, p=3, N=10, k=3):
    s = -PadicScalar.from_int(p ** (k - 1), p, N)
    return QuadExtScalar(
        PadicScalar.from_int(a, p, N), PadicScalar.from_int(b, p, N), s
    )


def test_quad_norm_is_conjugate_product():
    rng = SplitMix64(107)
    for _ in range(100):
        x = quad(rng.randrange(-40, 40), rng.randrange(-40, 40))
        prod = x * QuadExtScalar(x.a, -x.b, x.s)
        assert prod.b.is_zero()
        assert prod.a == x.norm()


def test_quad_half_valuation_additive():
    rng = SplitMix64(108)
    for _ in range(150):
        x = quad(rng.randrange(-40, 41), rng.randrange(-40, 41))
        y = quad(rng.randrange(-40, 41), rng.randrange(-40, 41))
        if x.is_zero() or y.is_zero():
            continue
        assert (x * y).half_val() == x.half_val() + y.half_val()
        assert x.norm().v * 1 == x.half_val() if x.norm().v != INF else True


def test_quad_inverse_and_alpha():
    # alpha itself: a=0, b=1
    p, N, k = 3, 12, 2
    s = -PadicScalar.from_int(p ** (k - 1), p, N)
    alpha = QuadExtScalar(PadicScalar.zero(p, N), PadicScalar.one(p, N), s)
    assert alpha.half_val() == k - 1
    assert alpha * alpha == s
    assert alpha * alpha.inv() == 1
    x = QuadExtScalar(PadicScalar.from_int(2, p, N), PadicScalar.from_int(5, p, N), s)
    assert x * x.inv() == 1
    with pytest.raises(DivideByZero):
        QuadExtScalar.zero(p, N, s).inv()


def test_scalar_json_round_trip():
    for x in (
        PadicScalar.from_int(18, 3, 5),
        PadicScalar.zero(5, 7),
        PadicScalar.from_rational(1, 2, 3, 6),
    ):
        y = PadicScalar.from_json(x.to_json())
        assert y.identical(x)
    q = quad(7, -2)
    r = QuadExtScalar.from_json(q.to_json())
    assert r == q and r.s == q.s


def test_json_keeps_a_zeros_precision():
    z = PadicScalar.zero(3, 20, 5)
    assert z.to_json()["v"] == 5
    assert PadicScalar.from_json(z.to_json()).identical(z)
    assert PadicScalar.zero(3, 20).to_json()["v"] == "inf"
