"""Arithmetic in E(zeta_{p^m}) and character evaluation.

Elements are coefficient vectors of length phi(p^m) in the power basis
1, zeta, ..., zeta^(phi(p^m)-1), reduced modulo the p^m-th cyclotomic
polynomial Phi(X) = sum_i X^(i*p^(m-1)).  Coefficients are either base
PadicScalar values or QuadExtScalar values; the code is agnostic.

Characters of the level-n Galois group are (d, m, e, r): omega^d on the
torsion part, gamma |-> zeta_{p^m}^e of exact order p^m, twisted by the
r-th power of the cyclotomic character.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import (
    BadConductor,
    DivideByZero,
    InvalidParameter,
    PrecisionExhausted,
    TrivialCharacter,
)
from .padic import INF, PadicScalar, QuadExtScalar, check_odd_prime, int_valuation, teichmuller


@lru_cache(maxsize=None)
def primitive_root(p: int) -> int:
    """Smallest generator of (Z/p)^*."""
    check_odd_prime(p)
    for g in range(2, p):
        x, order = g, 1
        while x != 1:
            x = x * g % p
            order += 1
        if order == p - 1:
            return g
    raise InvalidParameter(f"no primitive root mod {p}")


@lru_cache(maxsize=None)
def dlog_table(p: int) -> dict:
    """Index of each unit mod p with respect to the smallest primitive root."""
    g = primitive_root(p)
    table, x = {}, 1
    for i in range(p - 1):
        table[x] = i
        x = x * g % p
    return table


def dlog_oneunits(x: int, p: int, M: int) -> int:
    """Exponent t in [0, p^M) with (1+p)^t = x mod p^(M+1), for x = 1 mod p.

    Solved one digit at a time: (1+p)^(p^j) = 1 + p^(j+1)*w_j with w_j a
    unit, so each digit is a division mod p.
    """
    mod = p ** (M + 1)
    x %= mod
    if x % p != 1:
        raise InvalidParameter("argument is not a one-unit")
    u = 1 + p
    t, cur = 0, 1
    for j in range(M):
        pj1 = p ** (j + 1)
        diff = x * pow(cur, -1, mod) % mod
        digit = (diff - 1) // pj1 % p
        wj = (pow(u, p**j, p ** (j + 2)) - 1) // pj1
        digit = digit * pow(wj, -1, p) % p
        t += digit * p**j
        cur = cur * pow(u, digit * p**j, mod) % mod
    return t


def _zero_like(sample):
    if isinstance(sample, QuadExtScalar):
        return QuadExtScalar.zero(sample.p, sample.N, sample.s)
    return PadicScalar.zero(sample.p, sample.N)


def _one_like(sample):
    if isinstance(sample, QuadExtScalar):
        return QuadExtScalar.one(sample.p, sample.N, sample.s)
    return PadicScalar.one(sample.p, sample.N)


def phi_degree(p: int, m: int) -> int:
    return 1 if m == 0 else (p - 1) * p ** (m - 1)


class CyclotomicScalar:
    """Element of E(zeta_{p^m}) in the reduced power basis."""

    __slots__ = ("p", "m", "coeffs")

    def __init__(self, p: int, m: int, coeffs):
        coeffs = tuple(coeffs)
        if m < 0 or len(coeffs) != phi_degree(p, m):
            raise InvalidParameter("coefficient vector has the wrong length")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicScalar is immutable")

    @classmethod
    def from_scalar(cls, x, m: int = 0) -> "CyclotomicScalar":
        deg = phi_degree(x.p, m)
        z = _zero_like(x)
        return cls(x.p, m, (x,) + (z,) * (deg - 1))

    @classmethod
    def from_exponent_terms(cls, p: int, m: int, terms, zero) -> "CyclotomicScalar":
        """Fold zeta^exp contributions into the reduced basis.

        Exponents are taken mod p^m; an exponent q*p^(m-1)+s with q = p-1
        rewrites as minus the sum over the lower q by the defining relation.
        """
        deg = phi_degree(p, m)
        out = [zero] * deg
        if m == 0:
            for _, c in terms:
                out[0] = out[0] + c
            return cls(p, m, out)
        pm = p**m
        block = p ** (m - 1)
        for e, c in terms:
            e %= pm
            q, s = divmod(e, block)
            if q < p - 1:
                out[e] = out[e] + c
            else:
                for i in range(p - 1):
                    out[i * block + s] = out[i * block + s] - c
        return cls(p, m, out)

    @classmethod
    def root(cls, p: int, m: int, e: int, N: int) -> "CyclotomicScalar":
        """zeta_{p^m}^e as a base-ring element."""
        one = PadicScalar.one(p, N)
        return cls.from_exponent_terms(p, m, [(e, one)], PadicScalar.zero(p, N))

    def _zero(self):
        return _zero_like(self.coeffs[0])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def _check(self, other):
        if self.p != other.p or self.m != other.m:
            raise InvalidParameter("mixed cyclotomic levels")

    def __add__(self, other):
        self._check(other)
        return CyclotomicScalar(
            self.p, self.m, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        return CyclotomicScalar(self.p, self.m, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        deg = len(self.coeffs)
        conv = {}
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                k = i + j
                t = a * b
                if k in conv:
                    conv[k] = conv[k] + t
                else:
                    conv[k] = t
        return CyclotomicScalar.from_exponent_terms(
            self.p, self.m, sorted(conv.items()), self._zero()
        )

    def scalar_mul(self, x) -> "CyclotomicScalar":
        return CyclotomicScalar(self.p, self.m, tuple(c * x for c in self.coeffs))

    def conjugate(self, t: int) -> "CyclotomicScalar":
        """Galois image zeta -> zeta^t for t coprime to p."""
        if gcd(t, self.p) != 1:
            raise InvalidParameter("conjugation index must be a unit")
        if self.m == 0:
            return self
        return CyclotomicScalar.from_exponent_terms(
            self.p,
            self.m,
            [(i * t, c) for i, c in enumerate(self.coeffs)],
            self._zero(),
        )

    def inv(self) -> "CyclotomicScalar":
        """Inverse via the product of all nontrivial conjugates over the norm.

        Verified by re-multiplication; raises if the element is zero at
        working precision or the verification fails.
        """
        if self.is_zero():
            raise DivideByZero("inverse of zero at working precision")
        if self.m == 0:
            return CyclotomicScalar(self.p, 0, (self.coeffs[0].inv(),))
        cof = None
        pm = self.p**self.m
        for t in range(2, pm):
            if t % self.p == 0:
                continue
            c = self.conjugate(t)
            cof = c if cof is None else cof * c
        full = cof * self
        n0 = full.coeffs[0]
        if n0.is_zero() or not all(c.is_zero() for c in full.coeffs[1:]):
            raise PrecisionExhausted("norm lost all significant digits")
        out = cof.scalar_mul(n0.inv())
        check = out * self
        if not (check - CyclotomicScalar.from_scalar(_one_like(n0), self.m)).is_zero():
            raise PrecisionExhausted("inverse failed re-multiplication check")
        return out

    def __eq__(self, other):
        if not isinstance(other, CyclotomicScalar):
            return NotImplemented
        self._check(other)
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        return f"CyclotomicScalar(p={self.p}, m={self.m}, {list(self.coeffs)!r})"

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "coeffs": [c.to_json() for c in self.coeffs],
        }


@dataclass(frozen=True)
class CharacterSpec:
    """Character data: omega^d on torsion, gamma -> zeta_{p^m}^e, twist r."""

    d: int
    m: int
    e: int
    r: int

    def validate(self, p: int, n: int | None = None) -> None:
        if not 0 <= self.d < p - 1:
            raise InvalidParameter("d out of range")
        if self.m < 0 or self.r < 0:
            raise InvalidParameter("negative character index")
        if self.m == 0:
            if self.e != 1:
                raise InvalidParameter("e must be 1 for trivial gamma-part")
        else:
            if not (0 < self.e < p**self.m and self.e % p != 0):
                raise InvalidParameter("e must be a unit mod p^m")
        if n is not None and self.m > n - 1:
            raise BadConductor(f"gamma-order p^{self.m} unreachable at level {n}")

    def is_trivial(self) -> bool:
        return self.d == 0 and self.m == 0

    def conductor_exponent(self) -> int:
        if self.is_trivial():
            return 0
        return self.m + 1

    def inverse(self, p: int) -> "CharacterSpec":
        e = 1 if self.m == 0 else (-self.e) % p**self.m
        return CharacterSpec((-self.d) % (p - 1), self.m, e, self.r)

    def to_json(self) -> dict:
        return {"d": self.d, "m": self.m, "e": self.e, "r": self.r}


def _fold(p: int, rows, weights, ur: int, F, m: int, e: int, N: int) -> list:
    """sum_{a, r'} c_{a,r'} w_a ur^r' zeta_{p^m}^(e r') in the reduced basis.

    The value at zeta_{p^m} of the rows c_a with integer weights w_a, as
    integers over one valuation V: the least valuation of a nonzero
    coefficient or modulus exponent of a finite zero.
    - A nonzero u p^v enters as u w_a p^(v-V), known mod p^(v + min(N_c, F)),
      with F the precision of the weights and ur; INF when they are all 1.
    - A finite zero 0 mod p^A enters as 0 known mod p^A; exact zeros are
      skipped.
    Column r' takes the factor ur^r' mod p^F and lands on zeta^(e r'); an
    exponent q p^(m-1) + s with q = p - 1 is minus the sum over the lower
    q, by the defining relation of Phi_{p^m}.  A slot is known mod p^A, A
    the least modulus among the terms feeding it.  One that vanishes there
    is 0 mod p^A and one that nothing feeds an exact zero, both with N as
    their N field, which carries no information.
    """
    out = [PadicScalar.zero(p, N)] * phi_degree(p, m)
    vals = [c.v for row in rows for c in row if c.v != INF]
    if not vals:
        return out
    V = min(vals)
    cols = {}
    for w, row in zip(weights, rows):
        for rp, c in enumerate(row):
            if c.v == INF:
                continue
            if c.u:
                t, cap = c.u * w * p ** (c.v - V), c.v + min(c.N, F) - V
            else:
                t, cap = 0, c.v - V
            x, a = cols.get(rp, (0, cap))
            cols[rp] = (x + t, min(a, cap))
    pm, block = p**m, p ** max(m - 1, 0)
    mod = p**F if ur != 1 else None
    slots = {}

    def feed(slot, x, cap):
        y, a = slots.get(slot, (0, cap))
        slots[slot] = (y + x, min(a, cap))

    for rp, (x, cap) in cols.items():
        if mod:
            x *= pow(ur, rp, mod)
        q, s = divmod(e * rp % pm, block)
        if q < p - 1:
            feed(q * block + s, x, cap)
        else:
            for i in range(p - 1):
                feed(i * block + s, -x, cap)
    for slot, (x, cap) in slots.items():
        x %= p**cap
        if x:
            v = int_valuation(x, p)
            out[slot] = PadicScalar(p, V + v, x // p**v, cap - v)
        else:
            out[slot] = PadicScalar.zero(p, N, V + cap)
    return out


def eval_char(f, chi: CharacterSpec) -> CyclotomicScalar:
    """Evaluate a group-ring element at the character chi.

    Sum of c_{r',a} * omega(g)^(a(d+r)) * u^(r r') * zeta_{p^m}^(e r') over
    the coefficient grid, with u = 1 + p and g the fixed generator of the
    torsion part.  Ring homomorphism in f for each fixed chi.  A quadratic
    element is evaluated leg by leg, and its value pairs the legs' values.

    The work is one integer fold per leg (_fold) with F = N = f.N: the
    Teichmuller weights and (1+p)^(r r') are reduced mod p^N, so each
    nonzero coefficient is known to at most N relative digits, and a
    finite zero caps every slot its column feeds.
    """
    p, n, F = f.p, f.n, f.N
    chi.validate(p, n)
    mod, t = p**F, (chi.d + chi.r) % (p - 1)
    # with d + r = 0 mod p - 1 every torsion weight is 1
    w = teichmuller(primitive_root(p), p, F).u if t else 1
    weights = [pow(w, a * t % (p - 1), mod) for a in range(p - 1)]
    ur = pow(1 + p, chi.r, mod)
    m, e = chi.m, chi.e
    values = [_fold(p, grid, weights, ur, F, m, e, F) for grid in f.legs]
    if len(values) == 1:
        return CyclotomicScalar(p, m, values[0])
    a, b = values
    return CyclotomicScalar(p, m, [QuadExtScalar(x, y, f.s) for x, y in zip(a, b)])


def character_value(chi: CharacterSpec, a: int, p: int, N: int) -> tuple[int, int]:
    """Dirichlet realization at a unit a mod p^(m+1).

    Returns (torsion exponent of omega(g)^d at a, gamma exponent), i.e. the
    pair (d * dlog_g(a mod p), e * dlog_u(<a>)) so the value of the character
    is omega(g)^first * zeta_{p^m}^second.
    """
    if a % p == 0:
        raise InvalidParameter("a must be a unit")
    cm = chi.m + 1
    ad = dlog_table(p)[a % p]
    w = teichmuller(a, p, max(N, cm))
    abar = a * pow(w.u % p**cm, -1, p**cm) % p**cm
    ag = dlog_oneunits(abar, p, chi.m)
    return (chi.d * ad) % (p - 1), (chi.e * ag) % p**chi.m if chi.m else 0


def gauss_sum(chi: CharacterSpec, p: int, N: int) -> CyclotomicScalar:
    """Gauss sum over the conductor, valued in E(zeta_{p^(m+1)}).

    tau = sum over units a mod p^(m+1) of chi~(a) * zeta_cond^a, where chi~
    is the Dirichlet character matching chi under the standard isomorphism.
    The lower-level root of unity embeds via zeta_{p^m} = zeta_cond^p.
    """
    if chi.r != 0:
        raise InvalidParameter("gauss_sum is defined for untwisted characters")
    chi.validate(p)
    if chi.is_trivial():
        raise TrivialCharacter("no Gauss sum for the trivial character")
    cm = chi.conductor_exponent()
    if N < cm:
        raise PrecisionExhausted("need at least conductor-exponent digits")
    cond = p**cm
    g = primitive_root(p)
    w = teichmuller(g, p, N)
    buckets: dict[int, PadicScalar] = {}
    for a in range(1, cond):
        if a % p == 0:
            continue
        te, ge = character_value(chi, a, p, N)
        exp = (a + p * ge) % cond
        val = w**te
        if exp in buckets:
            buckets[exp] = buckets[exp] + val
        else:
            buckets[exp] = val
    return CyclotomicScalar.from_exponent_terms(
        p, cm, sorted(buckets.items()), PadicScalar.zero(p, N)
    )
