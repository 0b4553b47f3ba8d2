"""Half-log products, their normalizations, and the parity zero law."""

from fractions import Fraction

import pytest

from iwa.cyclotomic import CharacterSpec, CyclotomicScalar, eval_char
from iwa.errors import InvalidParameter, PrecisionExhausted
from iwa.groupring import GroupRingElem, phi, twist_gamma
from iwa.halflogs import (
    MINUS,
    PLUS,
    HalfLogParams,
    _phi_elem,
    character_grid,
    denominator_exponent,
    factor_indices,
    log_trunc,
    predicted_locus,
    saturated_twist_unit,
    vanishing_locus,
    zero_factor_counts,
)
from iwa.padic import PadicScalar


def int_grid(f, digits):
    """Lift every coefficient to an integer mod p**digits; valuations >= 0 only."""
    q = f.p ** digits
    out = []
    for row in f.coeffs:
        vals = []
        for c in row:
            if c.is_zero():
                vals.append(0)
            else:
                assert c.v >= 0
                vals.append((c.u * f.p**c.v) % q)
        out.append(vals)
    return out


def test_factor_indices_parity_ranges():
    assert factor_indices(1, PLUS) == ()
    assert factor_indices(1, MINUS) == ()
    assert factor_indices(2, PLUS) == ()
    assert factor_indices(2, MINUS) == (1,)
    assert factor_indices(5, PLUS) == (2, 4)
    assert factor_indices(5, MINUS) == (1, 3)
    assert factor_indices(6, PLUS) == (2, 4)
    assert factor_indices(6, MINUS) == (1, 3, 5)


def test_params_validation():
    with pytest.raises(InvalidParameter):
        HalfLogParams(p=4, k=2, n=1, sign=PLUS)
    with pytest.raises(InvalidParameter):
        HalfLogParams(p=3, k=1, n=1, sign=PLUS)
    with pytest.raises(InvalidParameter):
        HalfLogParams(p=3, k=2, n=0, sign=PLUS)
    with pytest.raises(InvalidParameter):
        HalfLogParams(p=3, k=2, n=1, sign="plus")
    with pytest.raises(InvalidParameter):
        HalfLogParams(p=3, k=2, n=1, sign=PLUS, eps=6)
    params = HalfLogParams(p=3, k=2, n=2, sign=MINUS, eps=2)
    assert params.to_json() == {"p": 3, "k": 2, "n": 2, "sign": "-", "eps": 2}


# the omega polynomial prod phi(s)/p is omega_tilde = prod phi(s) over
# p^(number of factors); at weight 2 the half-log is omega_tilde over
# p^(1 + number of factors)


def omega_tilde(p, n, sign, N):
    """prod phi(s) over the sign's indices, as kernel products of phi."""
    out = GroupRingElem.one(p, n, N)
    for s in factor_indices(n, sign):
        out = out * phi(p, n, s, N)
    return out


def weight_two_omega(p, n, sign, N):
    """omega_tilde read off the weight-2 half-log."""
    c = len(factor_indices(n, sign))
    return log_trunc(HalfLogParams(p=p, k=2, n=n, sign=sign), N).shift_p(1 + c)


def test_omega_poly_empty_product_is_one():
    # no even index below 2, so the plus product at n <= 2 is empty
    for n in (1, 2):
        w = weight_two_omega(3, n, PLUS, 20)
        assert w == GroupRingElem.one(3, n, 20)


def test_omega_poly_minus_level_two():
    # single factor phi(1) = 1 + gamma + gamma^2 at level 2, i.e. 3 times
    # the normalized (1 + gamma + gamma^2)/3
    w = weight_two_omega(3, 2, MINUS, 20)
    one = PadicScalar.one(3, 20)
    for r in range(3):
        assert w.coeffs[0][r] == one
    for a in (1,):
        assert all(c.is_zero() for c in w.coeffs[a])


def test_omega_poly_plus_level_four_support():
    # phi(2) at level 4: coefficients 1 (3 times the normalized 1/3) at
    # gamma-exponents 0, 3, 6
    w = weight_two_omega(3, 4, PLUS, 20)
    one = PadicScalar.one(3, 20)
    for r in range(27):
        c = w.coeffs[0][r]
        if r in (0, 3, 6):
            assert c == one
        else:
            assert c.is_zero()


def test_omega_tilde_scaling_relation():
    for (pp, n, sign) in [(3, 3, MINUS), (3, 4, PLUS), (5, 3, MINUS), (3, 5, MINUS)]:
        got = weight_two_omega(pp, n, sign, 24)
        want = omega_tilde(pp, n, sign, 24)
        assert got == want
        # products of distinct phi(s) have 0/1 coefficients: nothing is lost
        assert got.identical(want)


def test_omega_tilde_minus_level_three_is_phi_one():
    assert weight_two_omega(3, 3, MINUS, 20).identical(phi(3, 3, 1, 20))


def test_omega_tilde_plus_level_five_product_support():
    # phi(2)*phi(4) at level 5: exponents {0,3,6} + {0,27,54}, coefficient 1
    w = weight_two_omega(3, 5, PLUS, 20)
    grid = int_grid(w, 10)
    want = {(i + j) % 81 for i in (0, 3, 6) for j in (0, 27, 54)}
    assert len(want) == 9
    for r in range(81):
        assert grid[0][r] == (1 if r in want else 0)
    assert all(v == 0 for v in grid[1])


def test_log_trunc_weight_two_is_omega_over_p():
    for (pp, n, sign) in [(3, 2, MINUS), (3, 4, PLUS), (3, 4, MINUS), (5, 3, MINUS)]:
        params = HalfLogParams(p=pp, k=2, n=n, sign=sign)
        c = len(factor_indices(n, sign))
        assert log_trunc(params, 30) == omega_tilde(pp, n, sign, 30).shift_p(-1 - c)


def test_log_trunc_empty_product_is_pure_p_power():
    # n <= 2 plus side has no factors: result is p^(1-k) exactly
    for k in (2, 3, 5):
        params = HalfLogParams(p=3, k=k, n=2, sign=PLUS)
        got = log_trunc(params, 30)
        want = GroupRingElem.one(3, 2, 30).shift_p(1 - k)
        assert got == want


def test_log_trunc_weight_three_matches_integer_convolution():
    # 3^(-2) * (phi(1)/3) * (phi(1) with gamma -> u^(-1) gamma / 3) at level 3:
    # rebuild the coefficient vector by hand with modular u-powers
    p, N = 3, 24
    params = HalfLogParams(p=p, k=3, n=3, sign=MINUS)
    got = log_trunc(params, N)
    assert denominator_exponent(params) == 4

    q = p ** (N + 6)
    u = 1 + p
    uinv = pow(u, -1, q)
    cols = 9
    base = [1 if r in (0, 1, 2) else 0 for r in range(cols)]
    twisted = [(base[r] * pow(uinv, r, q)) % q for r in range(cols)]
    conv = [0] * cols
    for i in range(cols):
        if not base[i]:
            continue
        for j in range(cols):
            if not twisted[j]:
                continue
            conv[(i + j) % cols] = (conv[(i + j) % cols] + twisted[j]) % q

    lifted = got.shift_p(4)
    grid = int_grid(lifted, N)
    qq = p**N
    for r in range(cols):
        assert grid[0][r] % qq == conv[r] % qq
    assert all(v == 0 for v in grid[1])


def test_log_trunc_precision_guard():
    params = HalfLogParams(p=3, k=4, n=4, sign=MINUS)
    assert denominator_exponent(params) == 9
    with pytest.raises(PrecisionExhausted):
        log_trunc(params, 9)
    log_trunc(params, 10)


def test_log_factors_are_exact_twists():
    # the weight-4 half-log is the product of the three twists j = 0, 1, 2
    # of omega_tilde over p^denominator_exponent
    params = HalfLogParams(p=3, k=4, n=3, sign=MINUS)
    base = omega_tilde(3, 3, MINUS, 20)
    prod = twist_gamma(base, 0) * twist_gamma(base, 1) * twist_gamma(base, 2)
    assert log_trunc(params, 20) == prod.shift_p(-denominator_exponent(params))


def cpow(z, t):
    out = None
    for _ in range(t):
        out = z if out is None else out * z
    return out


def test_factor_eval_matches_cyclotomic_quotient_identity():
    # Phi(z)*(z^(p^(s-1)) - 1) = z^(p^s) - 1 for z = u^(r-j) zeta, checked in
    # the cyclotomic field itself; pins per-factor evaluation exactness
    p, n, N = 3, 4, 20
    for s in (1, 2, 3):
        elem = twist_gamma(phi(p, n, s, N), 1)
        for (m, e, r) in [(0, 1, 0), (1, 1, 2), (2, 4, 1), (3, 2, 2)]:
            chi = CharacterSpec(d=0, m=m, e=e, r=r)
            val = eval_char(elem, chi)
            # z = u^(r-1) * zeta^e: the twist shifts the u-power by one
            z = CyclotomicScalar.root(p, m, e if m else 0, N).scalar_mul(
                PadicScalar.from_int(1 + p, p, N) ** (r - 1)
            )
            one = CyclotomicScalar.from_scalar(PadicScalar.one(p, N), m)
            lhs = val * (cpow(z, p ** (s - 1)) - one)
            rhs = cpow(z, p**s) - one
            assert lhs == rhs


def test_vanishing_locus_p3_k2_n4():
    # plus zeros exactly at gamma-order 9; minus at orders 3 and 27
    N = 20
    plus = vanishing_locus(HalfLogParams(p=3, k=2, n=4, sign=PLUS), N)
    minus = vanishing_locus(HalfLogParams(p=3, k=2, n=4, sign=MINUS), N)
    assert {chi.m for chi in plus} == {2}
    assert {chi.m for chi in minus} == {1, 3}
    assert len(plus) == 2 * 6
    assert len(minus) == 2 * (2 + 18)
    for chi in plus | minus:
        assert chi.r == 0


def test_vanishing_locus_matches_parity_prediction_small_grid():
    N = 20
    for k in (2, 3):
        for n in (1, 2, 3, 4):
            for sign in (PLUS, MINUS):
                params = HalfLogParams(p=3, k=k, n=n, sign=sign)
                assert vanishing_locus(params, N) == predicted_locus(params)


def test_zeros_are_simple():
    N = 20
    for k in (2, 3, 4):
        for sign in (PLUS, MINUS):
            params = HalfLogParams(p=3, k=k, n=4, sign=sign)
            counts = zero_factor_counts(params, N)
            assert all(c in (0, 1) for c in counts.values())


def test_trivial_gamma_characters_never_vanish():
    N = 20
    params = HalfLogParams(p=3, k=3, n=4, sign=PLUS)
    locus = vanishing_locus(params, N)
    for chi in character_grid(3, 4, 3):
        if chi.m == 0:
            assert chi not in locus


def test_character_grid_counts():
    grid = character_grid(3, 3, 3)
    # r in {0,1}, d in {0,1}, m=0: e=1; m=1: e in {1,2}; m=2: e in 6 values
    assert len(grid) == 2 * 2 * (1 + 2 + 6)
    assert len(set(grid)) == len(grid)


def test_saturated_twist_unit_identity_and_one_units():
    p, n, N = 3, 2, 24
    for m in (2, 3):
        assert saturated_twist_unit(p, n, m, 0, N) == GroupRingElem.one(p, n, N)
        for j in (1, 2):
            x = saturated_twist_unit(p, n, m, j, N)
            diff = x - GroupRingElem.one(p, n, N)
            mv = diff.min_valuation()
            # geometric sum of u-powers: (1/p) sum u^(-j i p^(m-1)) = 1 + O(p^m)
            assert mv >= m


def fraction_half_log(p, n, k, sign):
    """prod over j < k-1 and s of phi_s(u^-j gamma), over p^denominator_exponent.

    A dense cyclic product of Fraction rows, with Y^e = u^(-j e) gamma^e.
    """
    P, u = p ** (n - 1), 1 + p
    params = HalfLogParams(p=p, k=k, n=n, sign=sign)
    row = [Fraction(1, p ** denominator_exponent(params))] + [Fraction(0)] * (P - 1)
    for j in range(k - 1):
        for s in factor_indices(n, sign):
            q = p ** (s - 1)
            out = [Fraction(0)] * P
            for r, a in enumerate(row):
                if a:
                    for i in range(p):
                        out[(r + i * q) % P] += a * Fraction(1, u ** (j * i * q))
            row = out
    return row


@pytest.mark.parametrize("p, top", [(3, 5), (5, 4), (7, 4)])
def test_log_trunc_is_the_exact_product(p, top):
    # every coefficient is the rational product converted once: each nonzero
    # one keeps all N relative digits, however many twists went in
    N = 40
    for n in range(1, top + 1):
        for k in range(2, 7):
            for sign in (PLUS, MINUS):
                got = log_trunc(HalfLogParams(p=p, k=k, n=n, sign=sign), N)
                want = fraction_half_log(p, n, k, sign)
                for c, x in zip(got.coeffs[0], want):
                    ref = PadicScalar.from_rational(x.numerator, x.denominator, p, N)
                    assert c.identical(ref), (p, n, k, sign)
                    assert c.is_zero() or c.N == N
                assert all(c.identical(PadicScalar.zero(p, N)) for row in got.coeffs[1:] for c in row)


def test_zero_scan_pieces_are_twisted_phis():
    # the pieces zero_factor_counts evaluates are the twists of phi(s),
    # digit for digit
    N = 30
    for p, n in [(3, 2), (3, 4), (5, 3), (7, 2)]:
        for j in range(4):
            for s in range(1, n):
                piece = _phi_elem(p, n, [(j, s)], 1, N)
                assert piece.identical(twist_gamma(phi(p, n, s, N), j))


@pytest.mark.parametrize("p, n, k", [(3, 4, 3), (5, 3, 3), (7, 3, 2)])
@pytest.mark.parametrize("sign", [PLUS, MINUS])
def test_zero_scan_counts_match_a_scan_of_every_character(p, n, k, sign):
    # one evaluation per (m, e, r) must give every d the count that
    # evaluating each piece at each character gives
    N = 40
    pieces = [
        _phi_elem(p, n, [(j, s)], 1, N) for j in range(k - 1) for s in factor_indices(n, sign)
    ]
    want = {
        chi: sum(1 for piece in pieces if eval_char(piece, chi).is_zero())
        for chi in character_grid(p, n, k)
    }
    got = zero_factor_counts(HalfLogParams(p=p, k=k, n=n, sign=sign), N)
    assert list(got.items()) == list(want.items())
