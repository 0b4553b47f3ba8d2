"""Group algebra: convolution, twists, folding, CRT splitting."""

import random

import pytest

from iwa import groupring
from iwa.cyclotomic import CharacterSpec, CyclotomicScalar, eval_char, phi_degree, primitive_root
from iwa.errors import (
    BadLevel,
    MalformedInput,
    NotAUnit,
    NotDivisible,
    PrecisionExhausted,
    ShapeMismatch,
)
from iwa.groupring import (
    BASE,
    GroupRingElem,
    b_sums,
    crt_context,
    crt_decompose,
    divide_exact,
    divisible_by_phi,
    invert_unit,
    phi,
    random_element,
    slot_is_zero,
    twist_gamma,
)
from iwa.halflogs import saturated_twist_unit
from iwa.padic import INF, PadicScalar, QuadExtScalar, int_valuation, teichmuller
from iwa.plusminus import make_alpha
from iwa.rng import SplitMix64


def lift_int(c: PadicScalar) -> int:
    if c.is_zero():
        return 0
    mod = c.p**c.N
    u = c.u if c.u <= mod // 2 else c.u - mod
    return u * c.p**c.v


def from_int_grid(p, n, grid, N=40):
    return GroupRingElem(
        p, n, [[PadicScalar.from_int(x, p, N) for x in row] for row in grid]
    )


def int_grid(f):
    return [[lift_int(c) for c in row] for row in f.coeffs]


# -- convolution ---------------------------------------------------------------


def test_mul_matches_integer_convolution():
    rng = SplitMix64(42)
    p, n = 3, 3
    cols = p ** (n - 1)
    for _ in range(6):
        ga = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(p - 1)]
        gb = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(p - 1)]
        want = [[0] * cols for _ in range(p - 1)]
        for a1 in range(p - 1):
            for r1 in range(cols):
                if ga[a1][r1] == 0:
                    continue
                for a2 in range(p - 1):
                    for r2 in range(cols):
                        want[(a1 + a2) % (p - 1)][(r1 + r2) % cols] += (
                            ga[a1][r1] * gb[a2][r2]
                        )
        got = from_int_grid(p, n, ga) * from_int_grid(p, n, gb)
        assert int_grid(got) == want


def _mixed_scalar(rng, p, low=1):
    """A scalar with a random valuation (negatives too) and precision, or zero."""
    N = rng.randrange(low, 41)
    if rng.randrange(5) == 0:
        return PadicScalar.zero(p, N)
    u = rng.randrange(1, p**N)
    while u % p == 0:
        u = rng.randrange(1, p**N)
    return PadicScalar(p, rng.randrange(-3, 6), u, N)


_OFF = 40


def _oracle_sums(pairs, p, R, C):
    """Brute-force cyclic product of flat scalar grids, summed over pairs.

    Returns per position (exact value times p^OFF, pairwise minimum of
    min(A1 + v2, v1 + A2) with A = v + N, or None when no nonzero pair meets).
    """
    out = [(0, None)] * (R * C)
    for f, g in pairs:
        for i, x in enumerate(f):
            if x.is_zero():
                continue
            a1, r1 = divmod(i, C)
            for j, y in enumerate(g):
                if y.is_zero():
                    continue
                a2, r2 = divmod(j, C)
                k = (a1 + a2) % R * C + (r1 + r2) % C
                tot, cap = out[k]
                pair_cap = min(x.v + x.N + y.v, x.v + y.v + y.N)
                out[k] = (
                    tot + x.u * y.u * p ** (x.v + y.v + _OFF),
                    pair_cap if cap is None else min(cap, pair_cap),
                )
    return out


def _assert_matches_oracle(got, want, p):
    for c, (tot, cap) in zip(got, want):
        if cap is None:
            assert c.is_zero()
            continue
        val = 0 if c.is_zero() else c.u * p ** (c.v + _OFF)
        assert (val - tot) % p ** (cap + _OFF) == 0
        assert c.is_zero() or c.v + c.N == cap


def _flat(f):
    return [c for row in f.coeffs for c in row]


def _flat_legs(f):
    return [[c for row in leg for c in row] for leg in f.legs]


def _check_product_against_oracle(f, g):
    p, R, C = f.p, f.rows, f.cols
    prod = f * g
    assert prod.identical(g * f)
    if f.kind == BASE:
        _assert_matches_oracle(_flat(prod), _oracle_sums([(_flat(f), _flat(g))], p, R, C), p)
        return
    fa, fb = _flat_legs(f)
    ga, gb = _flat_legs(g)
    fsb = [f.s * b for b in fb]  # the alpha^2 BD term pairs s*b with d
    want_a = _oracle_sums([(fa, ga), (fsb, gb)], p, R, C)
    want_b = _oracle_sums([(fa, gb), (fb, ga)], p, R, C)
    pa, pb = _flat_legs(prod)
    _assert_matches_oracle(pa, want_a, p)
    _assert_matches_oracle(pb, want_b, p)


@pytest.mark.parametrize("p,n", [(3, 4), (3, 5), (5, 3), (7, 3)])
@pytest.mark.parametrize("kind", ["base", "quad"])
def test_mul_kernel_matches_brute_force_with_pairwise_caps(p, n, kind):
    rng = random.Random(f"{p}/{n}/{kind}")
    R, C = p - 1, p ** (n - 1)

    def grid():
        return [[_mixed_scalar(rng, p) for _ in range(C)] for _ in range(R)]

    if kind == BASE:
        f, g = GroupRingElem(p, n, grid()), GroupRingElem(p, n, grid())
        _check_product_against_oracle(f, g)
        return
    s = PadicScalar(p, 1, p**30 - 1, 30)  # alpha^2 = -p to 30 digits

    def quad():
        return GroupRingElem(p, n, grid(), grid(), s=s)

    f = quad()
    _check_product_against_oracle(f, quad())
    # a lift has an all-zero alpha leg, which the product skips
    _check_product_against_oracle(f, GroupRingElem(p, n, grid()).to_quad(s))


def test_one_plus_gamma_squared():
    p, n, N = 5, 2, 20
    gamma = GroupRingElem.monomial(p, n, N, PadicScalar.one(p, N), a=0, r=1)
    x = GroupRingElem.one(p, n, N) + gamma
    sq = x * x
    want = [[0] * p ** (n - 1) for _ in range(p - 1)]
    want[0][0], want[0][1], want[0][2] = 1, 2, 1
    assert int_grid(sq) == want


def test_shape_guards():
    f = GroupRingElem.one(3, 2, 20)
    g = GroupRingElem.one(3, 3, 20)
    with pytest.raises(ShapeMismatch):
        f + g
    with pytest.raises(ShapeMismatch):
        f * g
    with pytest.raises(ShapeMismatch):
        GroupRingElem(3, 2, [[PadicScalar.one(3, 20)]])


# -- distinguished elements ------------------------------------------------------


def test_phi_support():
    f = phi(3, 4, 2, 20)
    grid = int_grid(f)
    assert grid[0][0] == grid[0][3] == grid[0][6] == 1
    assert sum(abs(x) for row in grid for x in row) == 3
    # saturated index: the element collapses to the scalar p
    top = phi(3, 2, 5, 20)
    assert int_grid(top)[0][0] == 3
    assert top.nnz() == 1


def test_phi_twisted_matches_twist_below_level():
    # phi(m) with gamma -> u^(-j) gamma, over p, is the twist of phi(m)/p
    for p, n, m, j in [(3, 3, 1, 1), (3, 3, 2, 2), (5, 2, 1, 1)]:
        got = saturated_twist_unit(p, n, m, j, 30)
        assert got.identical(twist_gamma(phi(p, n, m, 30), j).shift_p(-1))


def test_phi_twisted_at_saturated_index():
    # gamma-powers collapse; the result is the geometric sum in u^(-j p^(m-1)),
    # divisible by p, and its quotient by p keeps all N digits
    p, n, m, j, N = 3, 2, 2, 1, 25
    f = saturated_twist_unit(p, n, m, j, N).shift_p(1)
    assert f.nnz() == 1
    mod = p**N
    uinv = pow(1 + p, -1, mod)
    w = pow(uinv, j * p ** (m - 1), mod)
    want = sum(pow(w, i, mod) for i in range(p)) % mod
    c = f.coeffs[0][0]
    assert c.u * pow(p, c.v, mod) % mod == want % mod
    assert (c.v, c.N) == (1, N)


def test_twist_gamma_composition_and_identity():
    rng = SplitMix64(7)
    p, n, N = 3, 3, 30
    f = random_element(p, n, N, rng)
    assert twist_gamma(f, 0) == f
    assert twist_gamma(twist_gamma(f, 1), 2) == twist_gamma(f, 3)


def test_twists_multiplicative_mod_pn():
    # gamma wrap-around costs u^(j p^(n-1)) - 1, which has valuation n,
    # so the twists respect products to n digits at level n
    rng = SplitMix64(8)
    p, n, N = 3, 3, 30
    f = random_element(p, n, N, rng)
    g = random_element(p, n, N, rng)
    d1 = twist_gamma(f * g, 2) - twist_gamma(f, 2) * twist_gamma(g, 2)
    assert d1.is_zero() or d1.min_valuation() >= n


def test_twist_full_matches_twisted_evaluation():
    # twisting by the r-th power of the cyclotomic character scales the
    # coefficient at (a, j) by omega(g)^(r a) u^(r j), u = 1 + p
    rng = SplitMix64(9)
    p, n, N = 3, 3, 30
    f = random_element(p, n, N, rng)
    w = teichmuller(primitive_root(p), p, N)
    u = PadicScalar.from_int(1 + p, p, N)
    for d, m, e, r in [(1, 1, 1, 1), (0, 2, 2, 2), (1, 0, 1, 1)]:
        twisted = GroupRingElem(p, n, [
            [c * w ** (r * a % (p - 1)) * u ** (r * j) for j, c in enumerate(row)]
            for a, row in enumerate(f.coeffs)
        ])
        lhs = eval_char(f, CharacterSpec(d, m, e, r))
        rhs = eval_char(twisted, CharacterSpec(d, m, e, 0))
        assert lhs == rhs


# -- folding and divisibility ----------------------------------------------------


def test_b_sums_small_example():
    # fold gamma-exponents of 1 + 2g + 3g^2 + ... mod p^m
    p, n = 3, 3
    f = from_int_grid(p, n, [[1, 2, 3, 4, 5, 6, 7, 8, 9], [0] * 9])
    t = b_sums(f, 1)
    assert [lift_int(c) for c in t[0]] == [1 + 4 + 7, 2 + 5 + 8, 3 + 6 + 9]
    t2 = b_sums(f, 2)
    assert [lift_int(c) for c in t2[0]] == [1, 2, 3, 4, 5, 6, 7, 8, 9]
    with pytest.raises(BadLevel):
        b_sums(f, 3)
    with pytest.raises(BadLevel):
        b_sums(f, 0)


def test_divisibility_detects_multiples():
    rng = SplitMix64(13)
    for p, n, m in [(3, 2, 1), (3, 3, 1), (3, 3, 2), (5, 2, 1), (5, 3, 2)]:
        f = random_element(p, n, 30, rng)
        prod = f * phi(p, n, m, 30)
        assert divisible_by_phi(prod, m)
        probe = prod + GroupRingElem.monomial(
            p, n, 30, PadicScalar.one(p, 30), a=0, r=1
        )
        assert not divisible_by_phi(probe, m)


def test_divisibility_agrees_with_slot_vanishing():
    rng = SplitMix64(14)
    for p, n in [(3, 2), (3, 3), (5, 2)]:
        ctx = crt_context(p, n, 30)
        for trial in range(10):
            f = random_element(p, n, 30, rng)
            if trial % 2 == 0:
                f = f * phi(p, n, 1 + trial % (n - 1) if n > 1 else 1, 30)
            comps = ctx.decompose(f)
            for m in range(1, n):
                assert divisible_by_phi(f, m) == slot_is_zero(comps, m)


# -- CRT splitting ---------------------------------------------------------------


def test_crt_roundtrip_random():
    rng = SplitMix64(15)
    for p, n in [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3)]:
        for _ in range(6):
            f = random_element(p, n, 40, rng)
            back = crt_context(p, n, 40).reconstruct(crt_decompose(f))
            assert back == f
            assert all(c.N >= 30 for row in back.coeffs for c in row if c.u)


def _ref_slots(row, p, m):
    """A row's value at zeta_{p^m} as PadicScalar sums that start from no zero.

    Only exact zeros are skipped; None marks a slot that nothing feeds.
    """
    pm, block = p**m, p ** max(m - 1, 0)
    slots = [None] * phi_degree(p, m)

    def add(i, c):
        slots[i] = c if slots[i] is None else slots[i] + c

    for r, c in enumerate(row):
        if c.v == INF:
            continue
        q, s = divmod(r % pm, block)
        if q < p - 1:
            add(q * block + s, c)
        else:
            for i in range(p - 1):
                add(i * block + s, -c)
    return slots


def test_decompose_keeps_each_coefficients_digits():
    # h's coefficients carry 30..39 digits, so the product's caps vary; the
    # slot sum that starts from an exact zero at f.N cut the first term of
    # each slot to f.N digits, the fold keeps them
    rng = SplitMix64(16)
    p, n = 3, 4
    C = p ** (n - 1)
    h = GroupRingElem(p, n, [
        [PadicScalar.from_int(rng.randbelow(p**6), p, 30 + rng.randbelow(10)) for _ in range(C)]
        for _ in range(p - 1)
    ])
    f = h * random_element(p, n, 40, rng)
    comps = crt_context(p, n, f.N).decompose(f)
    zero = PadicScalar.zero(p, f.N)
    more = 0
    for m in range(n):
        for row, got in zip(f.coeffs, comps[m]):
            old = CyclotomicScalar.from_exponent_terms(
                p, m, [(r, c) for r, c in enumerate(row) if not c.is_zero()], zero
            )
            for x, want, before in zip(got.coeffs, _ref_slots(row, p, m), old.coeffs):
                if want is None:
                    assert x.identical(zero)
                elif want.is_zero():
                    assert x.is_zero() and x.v == want.v and x.N == f.N
                else:
                    assert x.identical(want)
                assert x == before and x.abs_precision() >= before.abs_precision()
                more += x.abs_precision() > before.abs_precision()
    assert more > 0


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (3, 4), (3, 5), (5, 3), (7, 3)])
def test_crt_idempotents_closed_form(p, n):
    # e_m is what reconstruct makes of 1 in slot m (trivial torsion row)
    N = 40
    ctx = crt_context(p, n, N)
    assert ctx.idem_den_exp == [n - 1] + [n - m for m in range(1, n)]
    one, zero = PadicScalar.one(p, N), PadicScalar.zero(p, N)

    def unit_slots(m):
        return [
            [CyclotomicScalar.from_scalar(one if (L, a) == (m, 0) else zero, L) for a in range(p - 1)]
            for L in range(n)
        ]

    idem = [ctx.reconstruct(unit_slots(m)) for m in range(n)]
    total = idem[0]
    for m, e in enumerate(idem):
        assert e.min_valuation() == -ctx.idem_den_exp[m]
        comps = ctx.decompose(e)
        for L in range(n):
            for a in range(p - 1):
                want = one if (L, a) == (m, 0) else zero
                assert comps[L][a] == CyclotomicScalar.from_scalar(want, L)
        assert e * e == e
        if m:
            total = total + e
    assert total == GroupRingElem.one(p, n, N)


def test_divide_exact_independent_of_earlier_contexts(monkeypatch):
    # a context requested at a higher precision leaves quotients unchanged
    monkeypatch.setattr(groupring, "_CONTEXTS", {})
    N = 40
    for p, n, m, seed in [(3, 4, 2, 1), (3, 4, 3, 2), (7, 3, 2, 4)]:
        f = random_element(p, n, N, SplitMix64(seed)) * phi(p, n, m, N)
        before = divide_exact(f, m)
        crt_context(p, n, 64)
        assert divide_exact(f, m).identical(before)


def test_crt_needs_headroom():
    with pytest.raises(PrecisionExhausted):
        crt_context(3, 4, 12)
    f = random_element(3, 3, 11, SplitMix64(1))
    with pytest.raises(PrecisionExhausted):
        crt_decompose(f)


def test_divide_exact_inverts_multiplication():
    rng = SplitMix64(16)
    for p, n, m in [(3, 2, 1), (3, 3, 1), (3, 3, 2), (3, 4, 2), (5, 3, 2)]:
        f = random_element(p, n, 40, rng)
        ph = phi(p, n, m, 40)
        prod = f * ph
        q = divide_exact(prod, m)
        assert q * ph == prod
        assert slot_is_zero(crt_decompose(q), m)


def test_divide_exact_by_saturated_index_strips_p():
    rng = SplitMix64(17)
    f = random_element(3, 2, 30, rng)
    assert divide_exact(f.shift_p(1), 2) == f
    assert divide_exact(f.shift_p(1), 9) == f


def test_divide_exact_rejects_non_multiples():
    f = GroupRingElem.one(3, 3, 30)
    with pytest.raises(NotDivisible):
        divide_exact(f, 1)
    with pytest.raises(NotDivisible):
        divide_exact(f, 2)


def test_divide_exact_canonical_on_projectors():
    # 1 = sum of slot projectors; dividing phi(m) * x by phi(m) recovers
    # x with slot m flattened to zero
    p, n, m = 3, 3, 1
    ctx = crt_context(p, n, 40)
    one = GroupRingElem.one(p, n, 40)
    prod = phi(p, n, m, 40)
    q = ctx.divide_exact(prod * one, m)
    comps = ctx.decompose(q)
    assert slot_is_zero(comps, m)
    for L in range(n):
        if L == m:
            continue
        # remaining slots carry phi_m(zeta_L)/phi_m(zeta_L) = 1
        one_slot = ctx.decompose(one)[L]
        for a in range(p - 1):
            assert comps[L][a] == one_slot[a]


def _is_unit_up_to_p(grid, p):
    """Whether an integer grid is p^v times a unit of Z_p[G].

    That holds when every character value sum_a aug_a g^(d a) of the
    torsion augmentation (each row summed) of the grid over p^v is nonzero
    mod p, g the primitive root and v the least valuation of an entry.
    """
    nonzero = [x for row in grid for x in row if x]
    if not nonzero:
        return False
    v = min(int_valuation(x, p) for x in nonzero)
    aug = [sum(row) // p**v for row in grid]
    g = primitive_root(p)
    return all(
        sum(x * pow(g, d * a, p) for a, x in enumerate(aug)) % p
        for d in range(p - 1)
    )


def _one_unit(p, n, N, rng):
    """1 + p g for a random integral g."""
    grid = [[p * x for x in row] for row in int_grid(random_element(p, n, N, rng))]
    grid[0][0] += 1
    return from_int_grid(p, n, grid, N)


def _draw_unit(p, n, N, rng):
    """A random element that is a unit of Z_p[G]."""
    while True:
        f = random_element(p, n, N, rng)
        grid = int_grid(f)
        if _is_unit_up_to_p(grid, p) and any(x % p for row in grid for x in row):
            return f


def test_invert_unit_roundtrip():
    # p^v times a unit of Z_p[G] round-trips; anything else is NotAUnit
    rng = SplitMix64(18)
    levels = [(3, 2), (3, 3), (5, 2)]
    drawn = [random_element(p, n, 40, rng) for p, n in levels]
    drawn += [_draw_unit(p, n, 40, rng) for p, n in levels]
    for f in drawn:
        if _is_unit_up_to_p(int_grid(f), f.p):
            assert invert_unit(f) * f == GroupRingElem.one(f.p, f.n, 40)
        else:
            with pytest.raises(NotAUnit):
                invert_unit(f)


def _int_product_mod(f, g, p, n, N):
    """Cyclic product of two integer grids over Z/(p-1) x Z/p^(n-1), mod p^N."""
    R, C = p - 1, p ** (n - 1)
    out = [[0] * C for _ in range(R)]
    terms = [(a, r, x) for a, row in enumerate(g) for r, x in enumerate(row) if x]
    for a1, row in enumerate(f):
        for r1, x in enumerate(row):
            if x:
                for a2, r2, y in terms:
                    out[(a1 + a2) % R][(r1 + r2) % C] += x * y
    return [[x % p**N for x in row] for row in out]


@pytest.mark.parametrize(
    "p,n", [(3, n) for n in range(1, 7)] + [(5, n) for n in range(1, 5)] + [(7, 1), (7, 2), (7, 3)]
)
@pytest.mark.parametrize("kind", ["one-unit", "unit"])
def test_invert_unit_keeps_every_digit(p, n, kind):
    N = 40
    rng = SplitMix64(100 * p + n)
    u = _one_unit(p, n, N, rng) if kind == "one-unit" else _draw_unit(p, n, N, rng)
    inv = invert_unit(u)
    assert all(c.abs_precision() >= N for row in inv.coeffs for c in row)
    one = [[int(a == r == 0) for r in range(p ** (n - 1))] for a in range(p - 1)]
    assert _int_product_mod(int_grid(u), int_grid(inv), p, n, N) == one


def test_invert_unit_rejects_units_of_q_p_only():
    # gamma - 1 + p is a unit of Q_p[G] but not p^v times one of Z_p[G]
    p, n = 3, 3
    grid = [[0] * p ** (n - 1) for _ in range(p - 1)]
    grid[0][0], grid[0][1] = p - 1, 1
    with pytest.raises(NotAUnit):
        invert_unit(from_int_grid(p, n, grid))


def test_invert_unit_scaled_monomial():
    p, n, N = 3, 3, 40
    w = teichmuller(primitive_root(p), p, N)
    f = GroupRingElem.monomial(p, n, N, w.shift(-2), r=1)
    want = GroupRingElem.monomial(p, n, N, w.inv().shift(2), r=p ** (n - 1) - 1)
    assert invert_unit(f) == want


def test_invert_unit_needs_no_crt_headroom():
    # N = 8 < n + 10: the slot idempotents are not involved
    p, n, N = 3, 4, 8
    u = _one_unit(p, n, N, SplitMix64(9))
    assert invert_unit(u) * u == GroupRingElem.one(p, n, N)


def test_invert_unit_monomial():
    # gamma * w has the obvious inverse gamma^(cols-1) * w^(-1)
    from iwa.cyclotomic import primitive_root
    from iwa.padic import teichmuller

    p, n, N = 3, 3, 40
    w = teichmuller(primitive_root(p), p, N)
    f = GroupRingElem.monomial(p, n, N, w, a=1, r=1)
    g = invert_unit(f)
    want = GroupRingElem.monomial(p, n, N, w.inv(), a=1, r=p ** (n - 1) - 1)
    assert g == want


def test_invert_unit_rejects_phi():
    with pytest.raises(NotAUnit):
        invert_unit(phi(3, 3, 1, 40))
    with pytest.raises(NotAUnit):
        invert_unit(GroupRingElem.zeros(3, 2, 40))


# -- quadratic coefficients -------------------------------------------------------


def _random_quad(p, n, N, rng, s):
    """A + alpha B from two base draws."""
    A, B = (random_element(p, n, N, rng).coeffs for _ in range(2))
    return GroupRingElem(p, n, A, B, s=s)


def test_quad_grid_operations():
    p, n, N = 3, 2, 30
    s = PadicScalar.from_int(-3, p, N)
    rng = SplitMix64(19)
    f = _random_quad(p, n, N, rng, s)
    g = _random_quad(p, n, N, rng, s)
    assert (f + g) * f == f * f + g * f
    alpha = QuadExtScalar(PadicScalar.zero(p, N), PadicScalar.one(p, N), s)
    a, b = (GroupRingElem(p, n, leg) for leg in f.legs)
    assert a.to_quad(s) + b.scale(alpha) == f
    ctx = crt_context(p, n, N)
    back = ctx.reconstruct(ctx.decompose(f), s)
    assert back == f
    prod = f * phi(p, n, 1, N).to_quad(s)
    assert divisible_by_phi(prod, 1)
    q = divide_exact(prod, 1)
    assert q * phi(p, n, 1, N).to_quad(s) == prod


def test_scale_promotes_base_to_quad():
    p, n, N = 3, 2, 25
    s = PadicScalar.from_int(-3, p, N)
    alpha = QuadExtScalar(PadicScalar.zero(p, N), PadicScalar.one(p, N), s)
    f = GroupRingElem.one(p, n, N)
    g = f.scale(alpha)
    assert g.kind == "quad"
    assert g.legs[1][0][0] == PadicScalar.one(p, N)


# -- quadratic elements against a per-coefficient reference ------------------------
#
# The reference keeps a quadratic element as a grid of QuadExtScalar and works
# coefficient by coefficient; the element's two base legs must give the same
# values with at least as many digits in every leg of every coefficient.


def _pairs(f):
    """f as a grid of QuadExtScalar."""
    return [
        [QuadExtScalar(a, b, f.s) for a, b in zip(ra, rb)]
        for ra, rb in zip(*f.legs)
    ]


def _from_pairs(p, n, grid, s):
    return GroupRingElem(
        p, n, [[c.a for c in row] for row in grid], [[c.b for c in row] for row in grid], s=s
    )


def _assert_matches_reference(got, ref):
    """Equal in value, and no leg of any coefficient has fewer digits."""
    assert got == ref
    assert len(got.legs) == len(ref.legs) == 2
    for leg_got, leg_ref in zip(got.legs, ref.legs):
        for row_got, row_ref in zip(leg_got, leg_ref):
            for c_got, c_ref in zip(row_got, row_ref):
                assert c_got.N >= c_ref.N


def _ref_divisible(f, m):
    p, pm, block = f.p, f.p**m, f.p ** (m - 1)
    for row in _pairs(f):
        folded = list(row[:pm])
        for r in range(pm, f.cols):
            folded[r % pm] = folded[r % pm] + row[r]
        if any(not (folded[r] - folded[r % block]).is_zero() for r in range(block, pm)):
            return False
    return True


def _ref_divide(f, m):
    """Long division by phi(m) on QuadExtScalar, then the projector correction."""
    p, n, cols = f.p, f.n, f.cols
    ctx = crt_context(p, n, f.N)
    block = p ** (m - 1)
    degphi = (p - 1) * block
    zero = QuadExtScalar.zero(p, f.N, f.s)
    quots, slots = [], []
    for row in _pairs(f):
        work, quot = list(row), [zero] * cols
        for d in range(cols - 1, degphi - 1, -1):
            lead = work[d]
            if lead.is_zero():
                continue
            quot[d - degphi] = lead
            for i in range(p):
                work[d - degphi + i * block] = work[d - degphi + i * block] - lead
        quots.append(quot)
        slots.append(CyclotomicScalar.from_exponent_terms(p, m, list(enumerate(quot)), zero).coeffs)
    corr_a = ctx._times_idem([(m, [[c.a for c in sl] for sl in slots])], f.N)
    corr_b = ctx._times_idem([(m, [[c.b for c in sl] for sl in slots])], f.N)
    grid = [
        [q - QuadExtScalar(a, b, f.s) for q, a, b in zip(qr, ar, br)]
        for qr, ar, br in zip(quots, corr_a, corr_b)
    ]
    return _from_pairs(p, n, grid, f.s)


def _ref_eval(f, chi):
    p, N = f.p, f.N
    w = teichmuller(primitive_root(p), p, N)
    weights = [w ** ((a * (chi.d + chi.r)) % (p - 1)) for a in range(p - 1)]
    ur = PadicScalar.from_int(1 + p, p, N) ** chi.r
    grid = _pairs(f)
    terms, upow = [], PadicScalar.one(p, N)
    for r in range(f.cols):
        acc = None
        for a in range(p - 1):
            if not grid[a][r].is_zero():
                t = grid[a][r] * weights[a]
                acc = t if acc is None else acc + t
        if acc is not None:
            terms.append(((chi.e * r) % p**chi.m if chi.m else 0, acc * upow))
        upow = upow * ur
    zero = QuadExtScalar.zero(p, grid[0][0].N, f.s)
    return CyclotomicScalar.from_exponent_terms(p, chi.m, terms, zero)


@pytest.mark.parametrize("p,n,k,eps", [(3, 3, 2, 1), (3, 4, 3, 1), (5, 3, 3, 2)])
def test_quad_legs_match_per_coefficient_reference(p, n, k, eps):
    rng = random.Random(f"quad-reference/{p}/{n}")
    alpha = make_alpha(p, k, eps, 30)
    s = alpha.s
    R, C = p - 1, p ** (n - 1)

    def grid(low=1):
        return [[_mixed_scalar(rng, p, low) for _ in range(C)] for _ in range(R)]

    # precisions from 1 digit up, then from 25 up (exact division needs
    # N >= n + 10, and evaluation works at the element's smallest N)
    for low in (1, 25):
        for f in (
            GroupRingElem(p, n, grid(low), grid(low), s=s),
            GroupRingElem(p, n, grid(low)).to_quad(s),  # an all-zero alpha leg
        ):
            _check_quad_against_reference(f, alpha, low > 1)
    # a base element scaled by alpha becomes quadratic
    f = GroupRingElem(p, n, grid())
    lifted = [[QuadExtScalar.lift(c, s) * alpha for c in row] for row in f.coeffs]
    _assert_matches_reference(f.scale(alpha), _from_pairs(p, n, lifted, s))


def _check_quad_against_reference(f, alpha, divide):
    p, n, s = f.p, f.n, f.s
    for x in (alpha, alpha.inv()):
        ref = _from_pairs(p, n, [[c * x for c in row] for row in _pairs(f)], s)
        _assert_matches_reference(f.scale(x), ref)
    for chi in (CharacterSpec(0, 0, 1, 0), CharacterSpec(1, 1, 1, 0), CharacterSpec(0, n - 1, 2, 1)):
        got, ref = eval_char(f, chi), _ref_eval(f, chi)
        assert got == ref
        for c_got, c_ref in zip(got.coeffs, ref.coeffs):
            assert c_got.a.N >= c_ref.a.N and c_got.b.N >= c_ref.b.N
    for m in range(1, n):
        assert divisible_by_phi(f, m) == _ref_divisible(f, m)
        if divide:
            prod = f * phi(p, n, m, 40)
            assert divisible_by_phi(prod, m) and _ref_divisible(prod, m)
            _assert_matches_reference(divide_exact(prod, m), _ref_divide(prod, m))

# -- serialization -----------------------------------------------------------------


def test_json_roundtrip_bit_identical():
    rng = SplitMix64(20)
    f = random_element(3, 3, 30, rng)
    again = GroupRingElem.from_json(f.to_json())
    assert again.identical(f)
    s = PadicScalar.from_int(-3, 3, 30)
    q = _random_quad(3, 2, 30, rng, s)
    assert GroupRingElem.from_json(q.to_json()).identical(q)
    with pytest.raises(MalformedInput):
        GroupRingElem.from_json({"p": 3, "n": 2, "ring": BASE, "coeffs": [[]]})


def test_json_keeps_a_zeros_precision():
    f = GroupRingElem.monomial(3, 2, 20, PadicScalar.zero(3, 20, 5), r=1)
    again = GroupRingElem.from_json(f.to_json())
    assert again.identical(f)
    assert again.coeffs[0][1].abs_precision() == 5
