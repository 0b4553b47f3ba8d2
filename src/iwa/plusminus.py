"""Signed decomposition of p-adic L-element pairs at a supersingular prime.

A pair (L1, L2) indexed by the two roots alpha, -alpha of X^2 + eps p^(k-1)
decomposes as

    L1 = log+ Lplus + alpha log- Lminus
    L2 = log+ Lplus - alpha log- Lminus

so Lplus = (L1+L2) / (2 log+) and Lminus = (L1-L2) / (2 alpha log-).  The
half-log splits as a p-power, the untwisted phi-factors (zero divisors,
divided via the CRT slots), and the j >= 1 twisted factors, which are units
of the group algebra because u^(-j) zeta is never a p-power root of unity;
their inverse has a closed form and is built exactly at the caller's N.

Quotients carry canonical zeroed slots, so they are coset representatives:
re-multiplying by the corresponding half-log reproduces the input exactly.
A canonical representative is generally non-integral (slot projectors have
p-denominators), so the O(1) valuation floor is enforced up to the zeroed
slots' projector denominators.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import inf

from .cyclotomic import CharacterSpec, eval_char
from .errors import (
    InvalidParameter,
    MalformedInput,
    NotDecomposable,
    PrecisionExhausted,
    ShapeMismatch,
    UnboundedResult,
)
from .groupring import GroupRingElem, crt_context, divide_exact, divisible_by_phi
from .halflogs import (
    MINUS,
    PLUS,
    HalfLogParams,
    _row_elem,
    _times_y,
    denominator_exponent,
    factor_indices,
    log_trunc,
)
from .padic import PadicScalar, QuadExtScalar, half_val_fraction


def make_alpha(p: int, k: int, eps: int, N: int) -> QuadExtScalar:
    """A root of X^2 + eps p^(k-1), as a quadratic-extension scalar.

    For odd k the valuation of alpha^2 is even, so a genuine field needs
    -eps to be a non-residue mod p; the split case is rejected because the
    half-integer valuation bookkeeping relies on the field property.
    """
    if k < 2:
        raise InvalidParameter("weight must be at least 2")
    if eps % p == 0:
        raise InvalidParameter("eps must be a unit")
    if k % 2 == 1 and pow(-eps % p, (p - 1) // 2, p) == 1:
        raise InvalidParameter(
            "odd weight with -eps a square mod p gives a split algebra"
        )
    s = PadicScalar.from_int(-eps, p, N).shift(k - 1)
    return QuadExtScalar(PadicScalar.zero(p, N), PadicScalar.one(p, N), s)


class AdmissiblePair:
    """Two L-elements over Q_p(alpha) sharing shape and precision."""

    __slots__ = ("L1", "L2", "params", "alpha")

    def __init__(self, L1, L2, params: HalfLogParams, alpha: QuadExtScalar):
        if L1.kind != "quad" or L2.kind != "quad":
            raise ShapeMismatch("pair members must live over Q_p(alpha)")
        if (L1.p, L1.n) != (L2.p, L2.n) or L1.p != params.p:
            raise ShapeMismatch("pair members disagree on (p, n)")
        s = alpha.s
        if not ((L1.s is s or L1.s == s) and (L2.s is s or L2.s == s)):
            raise ShapeMismatch("pair members live in a different extension")
        if half_val_fraction(alpha) != Fraction(params.k - 1, 2):
            raise InvalidParameter("alpha valuation must be (k-1)/2")
        object.__setattr__(self, "L1", L1)
        object.__setattr__(self, "L2", L2)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "alpha", alpha)

    def __setattr__(self, name, value):
        raise AttributeError("AdmissiblePair is immutable")

    def to_json(self) -> dict:
        return {
            "k": self.params.k,
            "eps": self.params.eps,
            "L1": self.L1.to_json(),
            "L2": self.L2.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict, N: int | None = None) -> "AdmissiblePair":
        try:
            k = int(obj["k"])
            eps = int(obj["eps"])
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInput(f"bad pair object: {exc}") from exc
        L1 = GroupRingElem.from_json(obj["L1"])
        L2 = GroupRingElem.from_json(obj["L2"])
        try:
            params = HalfLogParams(L1.p, k, L1.n, PLUS, eps)
            alpha = make_alpha(L1.p, k, eps, N or L1.N)
            return cls(L1.to_quad(alpha.s), L2.to_quad(alpha.s), params, alpha)
        except (InvalidParameter, ShapeMismatch) as exc:
            raise MalformedInput(f"bad pair object: {exc}") from exc


@dataclass(frozen=True)
class PMDecomposition:
    """Signed components with their canonical zeroed CRT slots."""

    Lplus: GroupRingElem
    Lminus: GroupRingElem
    plus_slots: tuple
    minus_slots: tuple
    params: HalfLogParams
    alpha: QuadExtScalar

    def to_json(self) -> dict:
        return {
            "k": self.params.k,
            "eps": self.params.eps,
            "Lplus": self.Lplus.to_json(),
            "Lminus": self.Lminus.to_json(),
            "plus_slots": list(self.plus_slots),
            "minus_slots": list(self.minus_slots),
        }


def pm_from_json(obj: dict, N: int | None = None) -> PMDecomposition:
    try:
        k = int(obj["k"])
        eps = int(obj["eps"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad decomposition object: {exc}") from exc
    Lp = GroupRingElem.from_json(obj["Lplus"])
    Lm = GroupRingElem.from_json(obj["Lminus"])
    if (Lp.p, Lp.n) != (Lm.p, Lm.n):
        raise MalformedInput("bad decomposition object: components disagree on (p, n)")
    try:
        params = HalfLogParams(Lp.p, k, Lp.n, PLUS, eps)
        alpha = make_alpha(Lp.p, k, eps, N or Lp.N)
        # to_quad refuses a component that lives in another extension
        Lp, Lm = Lp.to_quad(alpha.s), Lm.to_quad(alpha.s)
    except (InvalidParameter, ShapeMismatch) as exc:
        raise MalformedInput(f"bad decomposition object: {exc}") from exc
    return PMDecomposition(
        Lp,
        Lm,
        factor_indices(Lp.n, PLUS),
        factor_indices(Lm.n, MINUS),
        params,
        alpha,
    )


def _signed(params: HalfLogParams, sign: str) -> HalfLogParams:
    return HalfLogParams(params.p, params.k, params.n, sign, params.eps)


def _twisted_unit_inverse(params: HalfLogParams, sign: str, N: int):
    """Inverse of prod_{j=1..k-2} prod_s phi_s(u^-j gamma), exact to N digits; None if empty.

    With Y = u^-j gamma, u = 1 + p and P = p^(n-1), Y^P is the scalar
    c = u^(-jP), so each factor phi_s(Y) = (Y^(p^s) - 1)/(Y^(p^(s-1)) - 1)
    has inverse (Y^(p^(s-1)) - 1) sum_{i < p^(n-1-s)} Y^(i p^s) / (c - 1).
    Times u^(jP) above and below, that is an integer polynomial in gamma
    over the integer 1 - u^(jP); the whole inverse is the cyclic product of
    those polynomials over the product of those integers.
    """
    p, n, k = params.p, params.n, params.k
    indices = factor_indices(n, sign)
    if k == 2 or not indices:
        return None
    P = p ** (n - 1)
    row, den = [1] + [0] * (P - 1), 1
    for j in range(1, k - 1):
        for s in indices:
            q = p ** (s - 1)
            terms = [t for e in range(0, P, p * q) for t in ((e + q, 1), (e, -1))]
            row, c = _times_y(row, p, j, terms, P)
            den *= 1 - c
    return _row_elem(p, n, row, den, N)


def compose(Lplus, Lminus, params: HalfLogParams, alpha: QuadExtScalar) -> AdmissiblePair:
    """Assemble (L1, L2) = (log+ Lplus + a log- Lminus, ... - a ...)."""
    s = alpha.s
    p, n = params.p, params.n
    if (Lplus.p, Lplus.n) != (p, n) or (Lminus.p, Lminus.n) != (p, n):
        raise ShapeMismatch("components disagree with the parameters")
    N = min(Lplus.N, Lminus.N)
    lp = log_trunc(_signed(params, PLUS), N)
    lm = log_trunc(_signed(params, MINUS), N)
    P = lp * Lplus.to_quad(s)
    M = lm * Lminus.to_quad(s)
    Ma = M.scale(alpha)
    return AdmissiblePair(P + Ma, P - Ma, params, alpha)


def _extract(numerator, params, sign, floor):
    p, n, N = numerator.p, numerator.n, numerator.N
    k = params.k
    indices = factor_indices(n, sign)
    X = numerator.shift_p((k - 1) * (1 + len(indices)))
    inv = _twisted_unit_inverse(params, sign, N)
    if inv is not None:
        X = X * inv
    for m in indices:
        if not divisible_by_phi(X, m):
            raise NotDecomposable(
                f"{'plus' if sign == PLUS else 'minus'} numerator "
                f"is not a multiple of phi({m})"
            )
    for m in indices:
        X = divide_exact(X, m)
    allowance = 0
    if indices:
        ctx = crt_context(p, n, N)
        allowance = max(ctx.idem_den_exp[m] for m in indices)
    minv = X.min_valuation()
    if minv is not inf and minv < floor - allowance:
        raise UnboundedResult(
            f"{'plus' if sign == PLUS else 'minus'} component valuation "
            f"{minv} under floor {floor} (slot denominators allow "
            f"{allowance})"
        )
    return X, indices


def decompose(pair: AdmissiblePair, floor: int = 0) -> PMDecomposition:
    """Split an admissible pair; quotients carry canonical zeroed slots.

    Raises NotDecomposable when a phi-factor divisibility fails,
    UnboundedResult when a component breaks the valuation floor beyond the
    zeroed slots' projector denominators, and PrecisionExhausted when the
    components keep too few digits for compose to rebuild the pair.
    """
    params = pair.params
    p, N = params.p, min(pair.L1.N, pair.L2.N)
    half = PadicScalar.from_rational(1, 2, p, N)
    S = (pair.L1 + pair.L2).scale(half)
    D = (pair.L1 - pair.L2).scale(half).scale(pair.alpha.inv())
    Lplus, plus_slots = _extract(S, params, PLUS, floor)
    Lminus, minus_slots = _extract(D, params, MINUS, floor)
    # compose rebuilds the pair through both half-logs, whose denominators
    # need more digits than this; components with fewer cannot round-trip
    have = min(Lplus.N, Lminus.N)
    need = max(denominator_exponent(_signed(params, s)) for s in (PLUS, MINUS))
    if have <= need:
        raise PrecisionExhausted(
            f"components keep {have} digits; composing them back needs more "
            f"than {need}"
        )
    return PMDecomposition(Lplus, Lminus, plus_slots, minus_slots, params, pair.alpha)


# -- interpolation-shape admissibility -------------------------------------------


# conductor index from which the interpolation identity is enforced
S_MIN = 2


@dataclass(frozen=True)
class AdmissibilityReport:
    """Per-character comparison of alpha^s eval(L1) against (-alpha)^s eval(L2)."""

    rows: tuple

    @property
    def passed(self) -> bool:
        return all(r["ok"] for r in self.rows if r["enforced"])

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "s_min": S_MIN,
            "rows": [dict(r) for r in self.rows],
        }


def check_admissible(pair: AdmissiblePair) -> AdmissibilityReport:
    """Interpolation-shape identity at every character of conductor index s.

    Characters with gamma-order p^(s-1) carry the constraint
    alpha^s eval(L1) = (-alpha)^s eval(L2) for each twist 0 <= r <= k-2.
    Rows with s < S_MIN are reported but never enforced: at s = 1 the
    truncated plus-log supplies no vanishing, so the identity has no
    finite-level reason to hold.
    """
    params, alpha = pair.params, pair.alpha
    p, n, k = params.p, params.n, params.k
    rows = []
    for s in range(1, n + 1):
        m = s - 1
        a1 = alpha**s
        a2 = (-alpha) ** s
        es = (1,) if m == 0 else tuple(e for e in range(1, p**m) if e % p)
        ds = range(1, p - 1) if s == 1 else range(p - 1)
        for d in ds:
            for e in es:
                for r in range(k - 1):
                    chi = CharacterSpec(d, m, e, r)
                    lhs = eval_char(pair.L1, chi).scalar_mul(a1)
                    rhs = eval_char(pair.L2, chi).scalar_mul(a2)
                    rows.append(
                        {
                            "s": s,
                            "d": d,
                            "e": e,
                            "r": r,
                            "ok": (lhs - rhs).is_zero(),
                            "enforced": s >= S_MIN,
                        }
                    )
    return AdmissibilityReport(tuple(rows))
