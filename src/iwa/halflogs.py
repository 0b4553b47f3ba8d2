"""Truncated half-logarithms and their vanishing loci.

The level-n plus/minus half-log is a product of cyclotomic factors in gamma:
the plus element collects phi(s) for even s < n, the minus element for odd
s < n, each normalized by 1/p; the weight-k truncation multiplies the k-1
gamma-twists u^(-j)gamma for j = 0..k-2 and one more global 1/p per twist.

Each factor phi_s(u^(-j) gamma) is an integer polynomial in gamma over a
power of u = 1 + p; every product of such factors, or of their inverses, is
one integer polynomial over one integer, converted once at the caller's N.

Every factor is a polynomial in gamma of degree below p^(n-1) (the factor
degrees sum to less than p^(n-1)), so per-factor character evaluation is
exact.  Evaluating the assembled product at a twisted character (r >= 1) is
not: reducing gamma-exponents mod p^(n-1) discards multiples of
gamma^(p^(n-1)) - 1, whose twisted value u^(r p^(n-1)) - 1 is nonzero of
valuation n + v_p(r).  The zero-locus scan therefore works factor by factor,
which realizes the product formula exactly and keeps the locus sharp.
"""

from dataclasses import dataclass

from .cyclotomic import CharacterSpec, eval_char
from .errors import BadIndex, InvalidParameter, PrecisionExhausted
from .groupring import GroupRingElem
from .padic import PadicScalar, check_odd_prime

PLUS = "+"
MINUS = "-"


@dataclass(frozen=True)
class HalfLogParams:
    """Prime, weight, level, sign, and the unit eps with alpha^2 = -eps p^(k-1)."""

    p: int
    k: int
    n: int
    sign: str
    eps: int = 1

    def __post_init__(self):
        check_odd_prime(self.p)
        if self.k < 2:
            raise InvalidParameter("weight must be at least 2")
        if self.n < 1:
            raise InvalidParameter("level must be at least 1")
        if self.sign not in (PLUS, MINUS):
            raise InvalidParameter("sign must be '+' or '-'")
        if self.eps % self.p == 0:
            raise InvalidParameter("eps must be a unit")

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "n": self.n,
            "sign": self.sign,
            "eps": self.eps,
        }


def factor_indices(n: int, sign: str) -> tuple:
    """Indices s of the phi-factors: even (plus) or odd (minus), 1 <= s < n."""
    start = 2 if sign == PLUS else 1
    return tuple(range(start, n, 2))


def denominator_exponent(params: HalfLogParams) -> int:
    """Total power of p cleared by log_trunc: (k-1)(1 + #factors)."""
    c = len(factor_indices(params.n, params.sign))
    return (params.k - 1) * (1 + c)


def _times_y(row, p, j, terms, top):
    """(row * u^(j top) sum c Y^e over (e, c) in terms, u^(j top)), Y = u^(-j) gamma.

    u = 1 + p; with top >= every e, u^(j top) Y^e = u^(j (top - e)) gamma^e
    keeps an integer gamma-row mod gamma^len(row) - 1 integral.
    """
    P, u = len(row), 1 + p
    factor = [(e % P, c * u ** (j * (top - e))) for e, c in terms]
    out = [0] * P
    for r, a in enumerate(row):
        if a:
            for e, c in factor:
                out[(r + e) % P] += a * c
    return out, u ** (j * top)


def _phi_elem(p, n, factors, scale, N):
    """prod phi_s(u^(-j) gamma) over (j, s) in factors, divided by scale, at N digits."""
    row, den = [1] + [0] * (p ** (n - 1) - 1), scale
    for j, s in factors:
        q = p ** (s - 1)
        row, c = _times_y(row, p, j, [(i * q, 1) for i in range(p)], (p - 1) * q)
        den *= c
    return _row_elem(p, n, row, den, N)


def _row_elem(p, n, row, den, N):
    """sum_r (row[r] / den) gamma^r at N digits, one conversion per coefficient."""
    zero = PadicScalar.zero(p, N)
    first = [PadicScalar.from_rational(c, den, p, N) for c in row]
    return GroupRingElem(p, n, [first] + [[zero] * len(row)] * (p - 2))


def log_trunc(params: HalfLogParams, N: int) -> GroupRingElem:
    """prod over j = 0..k-2 and s of phi_s(u^(-j) gamma), over p^denominator_exponent."""
    p, n = params.p, params.n
    # the result sits at valuation >= -den_exp; with N <= den_exp it would
    # certify nothing even mod p^0
    if N <= denominator_exponent(params):
        raise PrecisionExhausted(
            "not enough digits for the half-log denominators at this level"
        )
    factors = [(j, s) for j in range(params.k - 1) for s in factor_indices(n, params.sign)]
    return _phi_elem(p, n, factors, p ** denominator_exponent(params), N)


# -- zero locus ----------------------------------------------------------------


def character_grid(p: int, n: int, k: int):
    """All (d, m, e, r) at level n with twists bounded by the weight."""
    out = []
    for r in range(k - 1):
        for d in range(p - 1):
            for m in range(n):
                es = (1,) if m == 0 else tuple(
                    e for e in range(1, p**m) if e % p
                )
                for e in es:
                    out.append(CharacterSpec(d, m, e, r))
    return out


def zero_factor_counts(params: HalfLogParams, N: int) -> dict:
    """Number of vanishing (twist j, index s) factors at each character.

    A character is a zero of the half-log iff its count is positive; the
    zeros are simple precisely when every positive count equals 1.
    """
    p, n = params.p, params.n
    S = factor_indices(n, params.sign)
    pieces = [_phi_elem(p, n, [(j, s)], 1, N) for j in range(params.k - 1) for s in S]
    grid = character_grid(p, n, params.k)
    # every piece lives on torsion row 0, whose weight is omega^0 = 1, so its
    # value does not depend on d: one scan per (m, e, r) serves every d.  It
    # runs at d = -r, where every torsion weight is 1.
    count = {}
    for chi in grid:
        key = (chi.m, chi.e, chi.r)
        if key not in count:
            rep = CharacterSpec((-chi.r) % (p - 1), *key)
            count[key] = sum(1 for elem in pieces if eval_char(elem, rep).is_zero())
    return {chi: count[chi.m, chi.e, chi.r] for chi in grid}


def vanishing_locus(params: HalfLogParams, N: int) -> frozenset:
    """Characters annihilating the half-log, by exact per-factor evaluation."""
    return frozenset(
        chi for chi, c in zero_factor_counts(params, N).items() if c > 0
    )


def predicted_locus(params: HalfLogParams) -> frozenset:
    """Parity law: zeros exactly at gamma-order p^m, m matching the sign.

    Plus vanishes at even m, minus at odd m, 1 <= m < n, for every torsion
    part d, every primitive e, every twist 0 <= r <= k-2.
    """
    p, n = params.p, params.n
    want_parity = 0 if params.sign == PLUS else 1
    out = []
    for chi in character_grid(p, n, params.k):
        if chi.m >= 1 and chi.m % 2 == want_parity:
            out.append(chi)
    return frozenset(out)


def saturated_twist_unit(p, n, m, j, N) -> GroupRingElem:
    """phi(m)/p realized with the twist substituted before gamma-reduction.

    For m >= n the plain phi(m) collapses to the constant p, which a
    coefficient twist leaves untouched; substituting gamma -> u^(-j) gamma
    first keeps the u-powers, and the result is a one-unit of the group
    algebra (j = 0 gives exactly 1).
    """
    if m < 1:
        raise BadIndex("phi is defined for m >= 1")
    return _phi_elem(p, n, [(j, m)], p, N)
