"""Cyclotomic coefficient vectors, characters, Gauss sums."""

from math import inf

import pytest

from iwa.cyclotomic import (
    CharacterSpec,
    CyclotomicScalar,
    character_value,
    dlog_oneunits,
    dlog_table,
    eval_char,
    gauss_sum,
    phi_degree,
    primitive_root,
)
from iwa.errors import (
    BadConductor,
    DivideByZero,
    InvalidParameter,
    TrivialCharacter,
)
from iwa.padic import PadicScalar, QuadExtScalar, teichmuller
from iwa.rng import SplitMix64


def lift_int(c: PadicScalar) -> int:
    # symmetric representative; exact for test-sized integers
    if c.is_zero():
        return 0
    mod = c.p**c.N
    u = c.u if c.u <= mod // 2 else c.u - mod
    assert c.v >= 0
    return u * c.p**c.v


def from_ints(p, m, ints, N=40):
    return CyclotomicScalar(
        p, m, [PadicScalar.from_int(x, p, N) for x in ints]
    )


def poly_rem_mod_phi(coeffs, p, m):
    """Plain long division of an integer polynomial by sum_i x^(i p^(m-1))."""
    block = p ** (m - 1)
    deg_phi = (p - 1) * block
    work = list(coeffs)
    while len(work) > deg_phi:
        lead = work.pop()
        if lead == 0:
            continue
        top = len(work)  # degree of the popped term
        for i in range(p - 1):
            work[top - deg_phi + i * block] -= lead
    return work + [0] * (deg_phi - len(work))


# -- reduction against integer polynomial division ----------------------------


def test_fold_matches_long_division():
    rng = SplitMix64(2024)
    for p, m in [(3, 1), (3, 2), (5, 1), (5, 2), (3, 3)]:
        pm = p**m
        for _ in range(10):
            raw = [(rng.randrange(0, pm + 3), rng.randrange(-50, 50)) for _ in range(8)]
            terms = [
                (e, PadicScalar.from_int(c, p, 40)) for e, c in raw
            ]
            folded = CyclotomicScalar.from_exponent_terms(
                p, m, terms, PadicScalar.zero(p, 40)
            )
            dense = [0] * (pm + 3)
            for e, c in raw:
                dense[e % pm] += c
            want = poly_rem_mod_phi(dense[:pm], p, m)
            assert [lift_int(c) for c in folded.coeffs] == want


def test_mul_matches_integer_oracle():
    rng = SplitMix64(77)
    for p, m in [(3, 1), (3, 2), (5, 1)]:
        deg = phi_degree(p, m)
        for _ in range(8):
            xa = [rng.randrange(-9, 10) for _ in range(deg)]
            xb = [rng.randrange(-9, 10) for _ in range(deg)]
            a = from_ints(p, m, xa)
            b = from_ints(p, m, xb)
            conv = [0] * (2 * deg)
            for i, ca in enumerate(xa):
                for j, cb in enumerate(xb):
                    conv[i + j] += ca * cb
            want = poly_rem_mod_phi(conv, p, m)
            got = a * b
            assert [lift_int(c) for c in got.coeffs] == want


def test_ring_laws_sampled():
    rng = SplitMix64(5150)
    p, m = 3, 2
    deg = phi_degree(p, m)
    for _ in range(6):
        a = from_ints(p, m, [rng.randrange(-99, 100) for _ in range(deg)])
        b = from_ints(p, m, [rng.randrange(-99, 100) for _ in range(deg)])
        c = from_ints(p, m, [rng.randrange(-99, 100) for _ in range(deg)])
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_conjugation_is_a_ring_map():
    rng = SplitMix64(31337)
    p, m = 5, 2
    deg = phi_degree(p, m)
    for t in (2, 7, 24):
        a = from_ints(p, m, [rng.randrange(-9, 10) for _ in range(deg)])
        b = from_ints(p, m, [rng.randrange(-9, 10) for _ in range(deg)])
        assert (a * b).conjugate(t) == a.conjugate(t) * b.conjugate(t)
        assert (a + b).conjugate(t) == a.conjugate(t) + b.conjugate(t)
    zeta = CyclotomicScalar.root(p, m, 1, 40)
    assert zeta.conjugate(7) == CyclotomicScalar.root(p, m, 7, 40)
    with pytest.raises(InvalidParameter):
        zeta.conjugate(10)


# -- inverses ------------------------------------------------------------------


def test_inverse_roundtrip():
    rng = SplitMix64(404)
    for p, m in [(3, 1), (3, 2), (5, 1), (5, 2)]:
        deg = phi_degree(p, m)
        one = CyclotomicScalar.from_scalar(PadicScalar.one(p, 40), m)
        done = 0
        while done < 4:
            ints = [rng.randrange(-20, 21) for _ in range(deg)]
            # x is a unit iff x mod (1 - zeta), the sum of its coefficients, is
            if sum(ints) % p == 0:
                continue  # stick to units so the check is clean
            x = from_ints(p, m, ints)
            assert x * x.inv() == one
            done += 1


def test_inverse_of_one_minus_zeta():
    for p in (3, 5):
        one = PadicScalar.one(p, 40)
        x = CyclotomicScalar.from_scalar(one, 1) - CyclotomicScalar.root(p, 1, 1, 40)
        y = x.inv()
        assert x * y == CyclotomicScalar.from_scalar(one, 1)


def test_inverse_of_zero_rejected():
    z = CyclotomicScalar.from_scalar(PadicScalar.zero(3, 20), 1)
    with pytest.raises(DivideByZero):
        z.inv()


# -- discrete logs -------------------------------------------------------------


def test_dlog_table_against_pow():
    for p in (3, 5, 7, 13):
        g = primitive_root(p)
        tab = dlog_table(p)
        for x, i in tab.items():
            assert pow(g, i, p) == x


def test_dlog_oneunits_against_pow():
    rng = SplitMix64(888)
    for p, M in [(3, 4), (5, 3), (7, 2)]:
        for _ in range(12):
            t = rng.randbelow(p**M)
            x = pow(1 + p, t, p ** (M + 1))
            assert dlog_oneunits(x, p, M) == t
    with pytest.raises(InvalidParameter):
        dlog_oneunits(2, 5, 3)


# -- characters ----------------------------------------------------------------


def test_character_spec_validation():
    CharacterSpec(1, 1, 2, 0).validate(3, 3)
    with pytest.raises(InvalidParameter):
        CharacterSpec(5, 0, 1, 0).validate(3)
    with pytest.raises(InvalidParameter):
        CharacterSpec(0, 1, 3, 0).validate(3)  # e not a unit
    with pytest.raises(InvalidParameter):
        CharacterSpec(0, 0, 2, 0).validate(3)
    with pytest.raises(BadConductor):
        CharacterSpec(0, 2, 1, 0).validate(3, 2)
    chi = CharacterSpec(1, 2, 2, 3)
    assert chi.inverse(3).inverse(3) == chi
    assert chi.conductor_exponent() == 3
    assert CharacterSpec(0, 0, 1, 0).conductor_exponent() == 0


def test_character_value_is_multiplicative():
    rng = SplitMix64(246)
    for p, chi in [(3, CharacterSpec(1, 1, 2, 0)), (5, CharacterSpec(2, 1, 3, 0))]:
        cond = p ** (chi.m + 1)
        for _ in range(10):
            a = rng.randrange(1, cond)
            b = rng.randrange(1, cond)
            if a % p == 0 or b % p == 0:
                continue
            ta, ga = character_value(chi, a, p, 20)
            tb, gb = character_value(chi, b, p, 20)
            tc, gc = character_value(chi, a * b % cond, p, 20)
            assert tc == (ta + tb) % (p - 1)
            assert gc == (ga + gb) % p**chi.m


def test_character_value_at_generator():
    p = 5
    g = primitive_root(p)
    chi = CharacterSpec(3, 1, 1, 0)
    te, _ = character_value(chi, g, p, 20)
    assert te == 3


# -- Gauss sums ----------------------------------------------------------------


def test_quadratic_gauss_sum_at_three():
    # the classical zeta - zeta^2, squaring to -3
    tau = gauss_sum(CharacterSpec(1, 0, 1, 0), 3, 30)
    zeta = CyclotomicScalar.root(3, 1, 1, 30)
    assert tau == zeta - zeta.conjugate(2)
    m3 = CyclotomicScalar.from_scalar(PadicScalar.from_int(-3, 3, 30), 1)
    assert tau * tau == m3


def test_gauss_sum_norm_relation():
    # tau(theta) tau(theta^-1) = theta(-1) * conductor
    for p in (3, 5):
        specs = [CharacterSpec(d, 0, 1, 0) for d in range(1, p - 1)]
        specs += [
            CharacterSpec(d, 1, e, 0)
            for d in range(p - 1)
            for e in range(1, p)
        ]
        for chi in specs:
            cm = chi.conductor_exponent()
            tau = gauss_sum(chi, p, 25)
            taubar = gauss_sum(chi.inverse(p), p, 25)
            sign = -1 if chi.d % 2 else 1
            want = CyclotomicScalar.from_scalar(
                PadicScalar.from_int(sign * p**cm, p, 25), cm
            )
            assert tau * taubar == want


def test_gauss_sum_conjugation_torsion_characters():
    # values sit in the base ring, so sigma_t tau = theta(t)^(-1) tau exactly
    from iwa.padic import teichmuller

    for p in (3, 5, 7):
        g = primitive_root(p)
        w = teichmuller(g, p, 25)
        for d in range(1, p - 1):
            chi = CharacterSpec(d, 0, 1, 0)
            tau = gauss_sum(chi, p, 25)
            for t in range(2, p):
                te, _ = character_value(chi, pow(t, -1, p), p, 25)
                weight = CyclotomicScalar.from_scalar(w**te, 1)
                assert tau.conjugate(t) == weight * tau


def test_gauss_sum_conjugation_fixing_value_field():
    # t = 1 mod p^m fixes the character values, so the classical rule survives
    from iwa.padic import teichmuller

    p = 5
    for chi in (CharacterSpec(2, 1, 2, 0), CharacterSpec(0, 1, 1, 0)):
        cm = chi.conductor_exponent()
        cond = p**cm
        tau = gauss_sum(chi, p, 25)
        w = teichmuller(primitive_root(p), p, 25)
        for t in (1 + p, 1 + 3 * p):
            te, ge = character_value(chi, pow(t, -1, cond), p, 25)
            weight = CyclotomicScalar.from_scalar(w**te, cm) * CyclotomicScalar.root(
                p, cm, p * ge, 25
            )
            assert tau.conjugate(t) == weight * tau


def test_gauss_sum_conjugation_general():
    # general t also conjugates the value field: the gamma-part reindexes to
    # e -> te and the scalar factor picks up theta~(t)^(-1) with the
    # zeta-exponent stretched by t
    from iwa.padic import teichmuller

    for p in (3, 5):
        g = primitive_root(p)
        w = teichmuller(g, p, 25)
        specs = [(1, 1, 1), (0, 1, 2), (1, 2, p + 2)]
        for d, m, e in specs:
            if d >= p - 1:
                continue
            chi = CharacterSpec(d, m, e, 0)
            cm = chi.conductor_exponent()
            cond = p**cm
            tau = gauss_sum(chi, p, 25)
            for t in (2, cond - 1):
                te, ge = character_value(chi, t, p, 25)
                chi_t = CharacterSpec(d, m, t * e % p**m, 0)
                weight = CyclotomicScalar.from_scalar(
                    w ** ((-te) % (p - 1)), cm
                ) * CyclotomicScalar.root(p, cm, (-p * t * ge) % cond, 25)
                assert tau.conjugate(t) == weight * gauss_sum(chi_t, p, 25)


def test_gauss_sum_guards():
    with pytest.raises(TrivialCharacter):
        gauss_sum(CharacterSpec(0, 0, 1, 0), 3, 20)
    with pytest.raises(InvalidParameter):
        gauss_sum(CharacterSpec(1, 1, 1, 2), 3, 20)


# -- evaluation ------------------------------------------------------------------


def test_eval_char_is_a_ring_map():
    from iwa.groupring import random_element

    rng = SplitMix64(1618)
    p, n, N = 3, 3, 30
    f = random_element(p, n, N, rng)
    g = random_element(p, n, N, rng)
    for chi in (
        CharacterSpec(0, 0, 1, 0),
        CharacterSpec(1, 1, 1, 0),
        CharacterSpec(0, 2, 2, 0),
    ):
        assert eval_char(f + g, chi) == eval_char(f, chi) + eval_char(g, chi)
        assert eval_char(f * g, chi) == eval_char(f, chi) * eval_char(g, chi)


def test_eval_char_twisted_multiplicative_mod_pn():
    # with a twist the gamma wrap-around costs u^(r p^(n-1)) - 1, so the
    # homomorphism property only holds to n digits at level n
    from iwa.groupring import random_element

    rng = SplitMix64(1619)
    p, n, N = 3, 3, 30
    f = random_element(p, n, N, rng)
    g = random_element(p, n, N, rng)
    chi = CharacterSpec(1, 2, 2, 1)
    assert eval_char(f + g, chi) == eval_char(f, chi) + eval_char(g, chi)
    diff = eval_char(f * g, chi) - eval_char(f, chi) * eval_char(g, chi)
    assert all(c.is_zero() or c.v >= n for c in diff.coeffs)


def test_eval_at_trivial_character_is_augmentation():
    from iwa.groupring import random_element

    rng = SplitMix64(99)
    f = random_element(3, 2, 20, rng)
    total = None
    for row in f.coeffs:
        for c in row:
            total = c if total is None else total + c
    got = eval_char(f, CharacterSpec(0, 0, 1, 0))
    assert got.coeffs[0] == total


def _reference_eval_char(f, chi):
    """eval_char as a sum of capped PadicScalar products, term by term.

    Only exact zeros are skipped: a finite zero caps what it enters.
    """
    p, n, N = f.p, f.n, f.N
    chi.validate(p, n)
    g = primitive_root(p)
    w = teichmuller(g, p, N)
    weights = [w ** ((a * (chi.d + chi.r)) % (p - 1)) for a in range(p - 1)]
    ur = PadicScalar.from_int(1 + p, p, N) ** chi.r
    cols = p ** (n - 1)
    upows = [PadicScalar.one(p, N)]
    for _ in range(cols - 1):
        upows.append(upows[-1] * ur)
    values = []
    for grid in f.legs:
        terms = []
        for rp in range(cols):
            acc = None
            for a in range(p - 1):
                c = grid[a][rp]
                if c.v == inf:
                    continue
                t = c * weights[a]
                acc = t if acc is None else acc + t
            if acc is not None:
                terms.append(((chi.e * rp) % p**chi.m if chi.m else 0, acc * upows[rp]))
        zero = PadicScalar.zero(p, grid[0][0].N)
        values.append(CyclotomicScalar.from_exponent_terms(p, chi.m, terms, zero))
    if len(values) == 1:
        return values[0]
    a, b = values
    return CyclotomicScalar(
        p, chi.m, [QuadExtScalar(x, y, f.s) for x, y in zip(a.coeffs, b.coeffs)]
    )


def _assert_matches_reference(f, chi):
    """Nonzero slots identical to the scalar sum; zero slots the same 0 mod p^A."""
    got, want = eval_char(f, chi), _reference_eval_char(f, chi)
    assert (got.p, got.m, len(got.coeffs)) == (want.p, want.m, len(want.coeffs))
    for x, y in zip(got.coeffs, want.coeffs):
        pairs = [(x.a, y.a), (x.b, y.b)] if isinstance(y, QuadExtScalar) else [(x, y)]
        for s, t in pairs:
            if t.is_zero():
                assert s.is_zero() and s.v == t.v, (chi, s, t)
            else:
                assert s.identical(t), (chi, s, t)
    return got


def _sampled_characters(rng, p, n, per_m=4):
    """Every gamma-order p^m, m < n, with seeded d, e and twists r <= 3."""
    out = []
    for m in range(n):
        units = [1] if m == 0 else [e for e in range(1, p**m) if e % p]
        for _ in range(per_m):
            e = units[rng.randbelow(len(units))]
            out.append(CharacterSpec(rng.randbelow(p - 1), m, e, rng.randbelow(4)))
    return out


def _mixed_grid(rng, p, n, N):
    """Exact zeros, finite zeros, negative valuations, digits above N."""
    rows = []
    for _ in range(p - 1):
        row = []
        for _ in range(p ** (n - 1)):
            Nc = N + rng.randbelow(3)
            kind = rng.randbelow(6)
            if kind == 0:
                row.append(PadicScalar.zero(p, Nc))
            elif kind == 1:
                row.append(PadicScalar.zero(p, Nc, rng.randrange(-2, 6)))
            else:
                u = rng.randrange(1, p**Nc)
                u = u if u % p else u + 1
                row.append(PadicScalar(p, rng.randrange(-3, 4), u, Nc))
        rows.append(row)
    rows[0][0] = PadicScalar.one(p, N)
    return rows


def test_eval_char_matches_the_scalar_sum_on_mixed_grids():
    from iwa.groupring import GroupRingElem

    rng = SplitMix64(1313)
    for p, top in [(3, 4), (5, 3), (7, 3)]:
        for n in range(1, top + 1):
            for _ in range(3):
                f = GroupRingElem(p, n, _mixed_grid(rng, p, n, 6 + rng.randbelow(30)))
                for chi in _sampled_characters(rng, p, n):
                    _assert_matches_reference(f, chi)


def test_eval_char_matches_the_scalar_sum_on_cancelling_grids():
    # +-1, +-9, +-27 and their sums cancel at p = 3, where the torsion
    # weights are +-1; a zero slot is 0 mod p^A with N = f.N
    from iwa.groupring import GroupRingElem

    p = 3
    values = [0, 1, -1, 9, -9, 27, -27, 10, -10, 28, -28]
    rng = SplitMix64(2718)
    finite_zeros = 0
    for n in (1, 2, 3, 4):
        for i in range(60):
            N = (2, 3, 4, 6)[i % 4]
            rows = [
                [PadicScalar.from_int(values[rng.randbelow(len(values))], p, N)
                 for _ in range(p ** (n - 1))]
                for _ in range(p - 1)
            ]
            f = GroupRingElem(p, n, rows)
            for chi in _sampled_characters(rng, p, n, per_m=2) + [CharacterSpec(0, 0, 1, 0)]:
                got = _assert_matches_reference(f, chi)
                zeros = [c for c in got.coeffs if c.is_zero()]
                assert all(c.N == f.N for c in zeros)
                finite_zeros += sum(1 for c in zeros if c.v != inf)
    assert finite_zeros > 0
    # columns 0, 54 = 2 * 27 and 0, known mod 3^4, 3^6 and 3^3: the slot
    # is 0 mod 3^3
    rows = ([-3, 27, 10], [3, 27, -10])
    f = GroupRingElem(p, 2, [[PadicScalar.from_int(x, p, 3) for x in row] for row in rows])
    got = _assert_matches_reference(f, CharacterSpec(0, 0, 1, 0))
    assert got.coeffs[0].identical(PadicScalar.zero(p, 3, 3))


def test_eval_char_finite_zero_caps_the_slots_it_feeds():
    # 1 + O(3^2) + 0 is 1 known mod 3^2, not 1 to the element's 40 digits
    from iwa.groupring import GroupRingElem

    p, N = 3, 40
    one, z2, z = PadicScalar.one(p, N), PadicScalar.zero(p, N, 2), PadicScalar.zero(p, N)
    f = GroupRingElem(p, 2, [[one, z2, z], [z, z, z]])
    got = eval_char(f, CharacterSpec(0, 0, 1, 0))
    assert got.coeffs[0].identical(PadicScalar(p, 0, 1, 2))
    # at zeta_3 column 1 feeds slot 1 alone, column 0 slot 0 alone
    got = eval_char(f, CharacterSpec(0, 1, 1, 0))
    assert got.coeffs[0].identical(PadicScalar.one(p, N))
    assert got.coeffs[1].identical(PadicScalar.zero(p, N, 2))


@pytest.mark.parametrize("p, n", [(3, 3), (3, 4), (5, 3)])
def test_eval_char_matches_the_scalar_sum_on_composed_pairs(p, n):
    from iwa.groupring import random_element
    from iwa.halflogs import PLUS, HalfLogParams
    from iwa.plusminus import compose, make_alpha

    rng = SplitMix64(100 * p + n)
    alpha = make_alpha(p, 2, 1, 40)
    A = random_element(p, n, 40, rng).to_quad(alpha.s)
    B = random_element(p, n, 40, rng).to_quad(alpha.s)
    pair = compose(A, B, HalfLogParams(p=p, k=2, n=n, sign=PLUS), alpha)
    for chi in _sampled_characters(rng, p, n, per_m=3):
        _assert_matches_reference(pair.L1, chi)
        _assert_matches_reference(pair.L2, chi)


def test_quad_coefficients_supported():
    p, N = 3, 20
    s = PadicScalar.from_int(-3, p, N)
    a = QuadExtScalar(
        PadicScalar.from_int(2, p, N), PadicScalar.from_int(1, p, N), s
    )
    x = CyclotomicScalar.from_scalar(a, 1)
    z = CyclotomicScalar.root(p, 1, 1, N)
    zq = CyclotomicScalar(p, 1, [QuadExtScalar.lift(c, s) for c in z.coeffs])
    y = x * zq + x
    assert (y - x * (zq + CyclotomicScalar.from_scalar(QuadExtScalar.one(p, N, s), 1))).is_zero()
