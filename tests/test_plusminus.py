"""Signed decomposition: compose/decompose round trips and admissibility."""

import json
from fractions import Fraction

import pytest

from iwa.errors import (
    InvalidParameter,
    NotDecomposable,
    PrecisionExhausted,
    ShapeMismatch,
    UnboundedResult,
)
from iwa.groupring import GroupRingElem, phi, random_element, twist_gamma
from iwa.halflogs import MINUS, PLUS, HalfLogParams, factor_indices, log_trunc
from iwa.padic import PadicScalar, half_val_fraction
from iwa.plusminus import (
    AdmissiblePair,
    PMDecomposition,
    check_admissible,
    compose,
    decompose,
    make_alpha,
    pm_from_json,
    _signed,
    _twisted_unit_inverse,
)
from iwa.rng import SplitMix64


def test_make_alpha_square():
    for (p, k, eps) in [(3, 2, 1), (5, 2, 1), (3, 3, 1), (5, 4, 2), (7, 5, 1)]:
        alpha = make_alpha(p, k, eps, 24)
        sq = alpha * alpha
        want = PadicScalar.from_int(-eps, p, 24).shift(k - 1)
        assert sq.b.is_zero()
        assert sq.a == want
        assert half_val_fraction(alpha) == Fraction(k - 1, 2)


def test_make_alpha_guards():
    with pytest.raises(InvalidParameter):
        make_alpha(3, 1, 1, 20)
    with pytest.raises(InvalidParameter):
        make_alpha(3, 2, 3, 20)
    # odd weight needs -eps to be a non-residue: -(-1) = 1 is a square mod 5
    with pytest.raises(InvalidParameter):
        make_alpha(5, 3, -1, 20)
    # and -1 is a square mod 5, so eps = 1 splits as well
    with pytest.raises(InvalidParameter):
        make_alpha(5, 3, 1, 20)
    make_alpha(5, 3, 2, 20)


def test_pair_validation():
    p, n, N = 3, 2, 20
    alpha = make_alpha(p, 2, 1, N)
    params = HalfLogParams(p=p, k=2, n=n, sign=PLUS)
    base = GroupRingElem.one(p, n, N)
    quad = base.to_quad(alpha.s)
    with pytest.raises(ShapeMismatch):
        AdmissiblePair(base, base, params, alpha)
    with pytest.raises(ShapeMismatch):
        AdmissiblePair(quad, GroupRingElem.one(p, 3, N).to_quad(alpha.s), params, alpha)
    with pytest.raises(ShapeMismatch):
        AdmissiblePair(quad, quad, params, make_alpha(p, 4, 1, N))
    with pytest.raises(InvalidParameter):
        AdmissiblePair(quad, quad, params, alpha.shift(1))
    AdmissiblePair(quad, quad, params, alpha)


def test_constant_pair_splits_to_scaled_constant():
    # pair (c, c) at k=2, n=2, p=3: Lplus = 3c and Lminus = 0
    p, n, N = 3, 2, 24
    alpha = make_alpha(p, 2, 1, N)
    params = HalfLogParams(p=p, k=2, n=n, sign=PLUS)
    c = GroupRingElem.one(p, n, N).scale(PadicScalar.from_int(7, p, N))
    pair = AdmissiblePair(c.to_quad(alpha.s), c.to_quad(alpha.s), params, alpha)
    dec = decompose(pair)
    want = c.scale(PadicScalar.from_int(3, p, N)).to_quad(alpha.s)
    assert dec.Lplus == want
    assert dec.Lminus.is_zero()
    assert dec.plus_slots == ()
    assert dec.minus_slots == (1,)


def test_constant_pair_not_decomposable_at_level_three():
    # S = 1 is not a multiple of phi(2), which enters the plus log at n = 3
    p, n, N = 3, 3, 24
    alpha = make_alpha(p, 2, 1, N)
    params = HalfLogParams(p=p, k=2, n=n, sign=PLUS)
    one = GroupRingElem.one(p, n, N).to_quad(alpha.s)
    pair = AdmissiblePair(one, one, params, alpha)
    with pytest.raises(NotDecomposable):
        decompose(pair)


def test_unbounded_component_detected():
    p, n, N = 3, 2, 30
    alpha = make_alpha(p, 2, 1, N)
    params = HalfLogParams(p=p, k=2, n=n, sign=PLUS)
    deep = GroupRingElem.one(p, n, N).shift_p(-8)
    A = deep.to_quad(alpha.s)
    B = GroupRingElem.one(p, n, N).to_quad(alpha.s)
    pair = compose(A, B, params, alpha)
    with pytest.raises(UnboundedResult):
        decompose(pair, floor=0)
    dec = decompose(pair, floor=-8)
    assert dec.Lplus.min_valuation() == -8


def test_canonical_representative_may_dip_below_floor_by_projector():
    # the gamma coset mod the phi(1) slot has canonical rep (2 gamma - 1 - gamma^2)/3,
    # one unit below the floor; the slot projector denominator allows it
    p, n, N = 3, 2, 24
    alpha = make_alpha(p, 2, 1, N)
    params = HalfLogParams(p=p, k=2, n=n, sign=PLUS)
    A = GroupRingElem.one(p, n, N).to_quad(alpha.s)
    B = GroupRingElem.monomial(p, n, N, PadicScalar.one(p, N), a=0, r=1)
    pair = compose(A, B.to_quad(alpha.s), params, alpha)
    dec = decompose(pair, floor=0)
    assert dec.Lminus.min_valuation() == -1
    lm = log_trunc(_signed(params, MINUS), N).to_quad(alpha.s)
    assert lm * dec.Lminus == lm * B.to_quad(alpha.s)


def test_roundtrip_grid():
    # coset-aware equality after re-multiplication, plus exact recompose
    for k in (2, 3):
        for n in (1, 2, 3, 4):
            p, N = 3, 40
            alpha = make_alpha(p, k, 1, N)
            params = HalfLogParams(p=p, k=k, n=n, sign=PLUS)
            rng = SplitMix64(2024 + 100 * k + n)
            A = random_element(p, n, N, rng).to_quad(alpha.s)
            B = random_element(p, n, N, rng).to_quad(alpha.s)
            pair = compose(A, B, params, alpha)
            dec = decompose(pair, floor=-2)
            lp = log_trunc(_signed(params, PLUS), N).to_quad(alpha.s)
            lm = log_trunc(_signed(params, MINUS), N).to_quad(alpha.s)
            assert lp * dec.Lplus == lp * A
            assert lm * dec.Lminus == lm * B
            back = compose(dec.Lplus, dec.Lminus, params, alpha)
            assert back.L1 == pair.L1
            assert back.L2 == pair.L2


def test_decompose_refuses_components_too_thin_to_recompose():
    # weight 12 at level 3: the half-log denominators need 22 digits and the
    # quotient chain leaves 17 of the 40 put in (at weight 10 it leaves 22
    # and 21, enough for the 18 needed there)
    p, n, k, N = 3, 3, 12, 40
    rng = SplitMix64(5)
    alpha = make_alpha(p, k, 1, N)
    params = HalfLogParams(p=p, k=k, n=n, sign=PLUS)
    A = random_element(p, n, N, rng).to_quad(alpha.s)
    B = random_element(p, n, N, rng).to_quad(alpha.s)
    with pytest.raises(PrecisionExhausted, match="components keep 17 digits; composing them back needs more than 22"):
        decompose(compose(A, B, params, alpha))


def test_decompose_independent_of_earlier_precision():
    # a wider call leaves nothing behind that changes a narrower one's digits
    p, n, k = 7, 3, 3
    params = HalfLogParams(p=p, k=k, n=n, sign=PLUS)

    def run(N):
        alpha = make_alpha(p, k, 1, N)
        rng = SplitMix64(3)
        A = random_element(p, n, N, rng).to_quad(alpha.s)
        B = random_element(p, n, N, rng).to_quad(alpha.s)
        return json.dumps(decompose(compose(A, B, params, alpha)).to_json(), sort_keys=True)

    fresh = run(40)
    run(90)
    assert run(40) == fresh


def fraction_unit_inverse(p, n, k, sign):
    """prod over j = 1..k-2 and s of (Y^q - 1) sum_i Y^(i p^s) / (u^(-jP) - 1) as Fractions.

    Y = u^-j gamma, q = p^(s-1), P = p^(n-1), i < p^(n-1-s); Y^e is
    u^(-j e) gamma^(e mod P).
    """
    P, u = p ** (n - 1), 1 + p
    row = [Fraction(1)] + [Fraction(0)] * (P - 1)
    for j in range(1, k - 1):
        for s in factor_indices(n, sign):
            q = p ** (s - 1)
            scale = 1 / (Fraction(1, u ** (j * P)) - 1)
            factor = {}
            for e in range(0, P, p * q):
                for t, c in ((e + q, 1), (e, -1)):
                    factor[t % P] = factor.get(t % P, 0) + c * scale / u ** (j * t)
            out = [Fraction(0)] * P
            for r, a in enumerate(row):
                if a:
                    for t, c in factor.items():
                        out[(r + t) % P] += a * c
            row = out
    return row


@pytest.mark.parametrize(
    "p, n, k",
    [(3, 2, 3), (3, 3, 5), (3, 4, 3), (3, 4, 6), (3, 5, 3), (3, 5, 4), (3, 5, 6),
     (5, 3, 3), (5, 3, 4), (7, 3, 3)],
)
def test_twisted_unit_inverse_closed_form(p, n, k):
    # the closed form times the unit built factor by factor is 1, and the
    # inverse keeps every digit asked for: at N=40 it is the N=200 one cut,
    # and each coefficient is the rational inverse converted once
    params = HalfLogParams(p=p, k=k, n=n, sign=PLUS)
    for sign in (PLUS, MINUS):
        inv = _twisted_unit_inverse(params, sign, 200)
        if not factor_indices(n, sign):
            assert inv is None
            continue
        base = GroupRingElem.one(p, n, 300)
        for s in factor_indices(n, sign):
            base = base * phi(p, n, s, 300)
        unit = twist_gamma(base, 1)
        for j in range(2, k - 1):
            unit = unit * twist_gamma(base, j)
        assert unit * inv == GroupRingElem.one(p, n, 200)
        assert inv.N == 200
        narrow = _twisted_unit_inverse(params, sign, 40)
        assert narrow.N == 40
        assert narrow == inv
        exact = fraction_unit_inverse(p, n, k, sign)
        for c, x in zip(narrow.coeffs[0], exact):
            assert c.identical(PadicScalar.from_rational(x.numerator, x.denominator, p, 40))


@pytest.mark.parametrize("k, seeds", [(3, (8, 25)), (4, (252, 359))])
def test_round_trip_at_level_five(k, seeds):
    # at seeds 8, 252 and 359 the recomposed pair has coefficients that
    # cancel to zero at or below the pair's valuation there (O(3) against
    # 3^3 u at seed 8, O(3^-3) against 3^-3 u at seed 252): the two agree
    # only because such a zero keeps its absolute precision
    p, n, N = 3, 5, 40
    alpha = make_alpha(p, k, 1, N)
    params = HalfLogParams(p=p, k=k, n=n, sign=PLUS)
    for seed in seeds:
        rng = SplitMix64(seed)
        A = random_element(p, n, N, rng).to_quad(alpha.s)
        B = random_element(p, n, N, rng).to_quad(alpha.s)
        pair = compose(A, B, params, alpha)
        dec = decompose(pair)
        back = compose(dec.Lplus, dec.Lminus, params, alpha)
        assert back.L1 == pair.L1
        assert back.L2 == pair.L2


def test_round_trip_at_level_four_weight_six():
    # the half-logs are exact, so compose loses no digits to them: these
    # pairs keep 16-20 digits through decompose, more than the 15 that
    # compose needs back
    p, n, k, N = 3, 4, 6, 40
    alpha = make_alpha(p, k, 1, N)
    params = HalfLogParams(p=p, k=k, n=n, sign=PLUS)
    for seed in (2, 3, 4):
        rng = SplitMix64(seed)
        A = random_element(p, n, N, rng).to_quad(alpha.s)
        B = random_element(p, n, N, rng).to_quad(alpha.s)
        pair = compose(A, B, params, alpha)
        dec = decompose(pair)
        back = compose(dec.Lplus, dec.Lminus, params, alpha)
        assert back.L1 == pair.L1
        assert back.L2 == pair.L2


def test_recomposed_pair_decomposes_again_at_level_five():
    # the first decompose keeps about 30 of the 40 digits, and this input's
    # recomposed pair keeps enough for a second one; on other inputs the
    # second quotient chain still falls below the CRT floor and raises
    # PrecisionExhausted
    p, n, k, N = 3, 5, 2, 40
    alpha = make_alpha(p, k, 1, N)
    params = HalfLogParams(p=p, k=k, n=n, sign=PLUS)
    rng = SplitMix64(41)
    A = random_element(p, n, N, rng).to_quad(alpha.s)
    B = random_element(p, n, N, rng).to_quad(alpha.s)
    dec = decompose(compose(A, B, params, alpha))
    pair = compose(dec.Lplus, dec.Lminus, params, alpha)
    again = decompose(pair)
    back = compose(again.Lplus, again.Lminus, params, alpha)
    assert back.L1 == pair.L1
    assert back.L2 == pair.L2


def test_plus_component_stays_in_base_field():
    p, k, n, N = 3, 2, 4, 40
    alpha = make_alpha(p, k, 1, N)
    params = HalfLogParams(p=p, k=k, n=n, sign=PLUS)
    rng = SplitMix64(77)
    A = random_element(p, n, N, rng).to_quad(alpha.s)
    B = random_element(p, n, N, rng).to_quad(alpha.s)
    pair = compose(A, B, params, alpha)
    assert all(c.is_zero() for row in (pair.L1 + pair.L2).legs[1] for c in row)
    dec = decompose(pair, floor=-2)
    assert all(c.is_zero() for row in dec.Lplus.legs[1] for c in row)


def test_composed_pairs_admissible_weight_two():
    for n in (2, 3, 4):
        p, N = 3, 40
        alpha = make_alpha(p, 2, 1, N)
        params = HalfLogParams(p=p, k=2, n=n, sign=PLUS)
        rng = SplitMix64(4000 + n)
        A = random_element(p, n, N, rng).to_quad(alpha.s)
        B = random_element(p, n, N, rng).to_quad(alpha.s)
        pair = compose(A, B, params, alpha)
        rep = check_admissible(pair)
        assert rep.passed
        # informational rows exist below s_min but are never enforced
        assert any(not r["enforced"] for r in rep.rows)
        for r in rep.rows:
            assert r["enforced"] == (r["s"] >= 2)


def test_admissibility_scaling_invariance():
    p, n, N = 3, 3, 40
    alpha = make_alpha(p, 2, 1, N)
    params = HalfLogParams(p=p, k=2, n=n, sign=PLUS)
    rng = SplitMix64(91)
    A = random_element(p, n, N, rng).to_quad(alpha.s)
    B = random_element(p, n, N, rng).to_quad(alpha.s)
    pair = compose(A, B, params, alpha)
    c = PadicScalar.from_int(11, p, N)
    scaled = AdmissiblePair(pair.L1.scale(c), pair.L2.scale(c), params, alpha)
    assert check_admissible(scaled).passed


def test_unbalanced_pair_fails_admissibility():
    p, n, N = 3, 3, 30
    alpha = make_alpha(p, 2, 1, N)
    params = HalfLogParams(p=p, k=2, n=n, sign=PLUS)
    one = GroupRingElem.one(p, n, N).to_quad(alpha.s)
    zero = GroupRingElem.zeros(p, n, N).to_quad(alpha.s)
    rep = check_admissible(AdmissiblePair(one, zero, params, alpha))
    assert not rep.passed
    assert any(r["enforced"] and not r["ok"] for r in rep.rows)


def test_weight_three_twisted_rows_carry_wrap_residual():
    # reducing gamma-exponents mod p^(n-1) discards multiples of
    # gamma^(p^(n-1)) - 1, whose value at a twisted character (r >= 1) is a
    # small nonzero p-adic number; the identity therefore holds exactly on
    # the untwisted rows and only up to that residual on twisted ones
    p, n, N = 3, 3, 40
    alpha = make_alpha(p, 3, 1, N)
    params = HalfLogParams(p=p, k=3, n=n, sign=PLUS)
    rng = SplitMix64(555 + 13 * 3 + 3)
    A = random_element(p, n, N, rng).to_quad(alpha.s)
    B = random_element(p, n, N, rng).to_quad(alpha.s)
    pair = compose(A, B, params, alpha)
    rep = check_admissible(pair)
    untwisted = [r for r in rep.rows if r["enforced"] and r["r"] == 0]
    twisted = [r for r in rep.rows if r["enforced"] and r["r"] >= 1]
    assert untwisted and all(r["ok"] for r in untwisted)
    assert twisted and not all(r["ok"] for r in twisted)


def test_pair_json_roundtrip():
    p, n, N = 3, 3, 30
    alpha = make_alpha(p, 2, 1, N)
    params = HalfLogParams(p=p, k=2, n=n, sign=PLUS)
    rng = SplitMix64(8)
    A = random_element(p, n, N, rng).to_quad(alpha.s)
    B = random_element(p, n, N, rng).to_quad(alpha.s)
    pair = compose(A, B, params, alpha)
    blob = pair.to_json()
    assert set(blob) == {"k", "eps", "L1", "L2"}
    back = AdmissiblePair.from_json(blob)
    assert back.L1.identical(pair.L1)
    assert back.L2.identical(pair.L2)
    assert back.params.k == 2 and back.params.eps == 1


def test_decomposition_json_roundtrip():
    p, n, N = 3, 3, 40
    alpha = make_alpha(p, 2, 1, N)
    params = HalfLogParams(p=p, k=2, n=n, sign=PLUS)
    rng = SplitMix64(9)
    A = random_element(p, n, N, rng).to_quad(alpha.s)
    B = random_element(p, n, N, rng).to_quad(alpha.s)
    dec = decompose(compose(A, B, params, alpha), floor=-2)
    blob = dec.to_json()
    back = pm_from_json(blob)
    assert isinstance(back, PMDecomposition)
    assert back.Lplus.identical(dec.Lplus)
    assert back.Lminus.identical(dec.Lminus)
    assert back.plus_slots == dec.plus_slots
    assert back.minus_slots == dec.minus_slots
