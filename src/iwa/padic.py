"""Capped relative-precision p-adic scalars and a quadratic extension.

A nonzero scalar is stored as u * p^v with u a unit known modulo p^N, so it
carries N significant base-p digits regardless of its valuation v.  A zero
(u = 0) is known modulo p^v: v = +infinity is an exact zero, a finite v the
zero O(p^v) that remains when every certified digit cancels (Caruso,
"Computations with p-adic numbers", arXiv:1701.06794).  Addition aligns
valuations and pays for cancellation out of the relative precision; adding
O(p^A) reduces the other operand mod p^A, and O(p^A) times x is O(p^(A+v(x))).
Unit arithmetic modulo p^N is exact, so equal quantities computed along
different routes produce identical digits.

QuadExtScalar models a + b*alpha with alpha^2 = s a fixed scalar of odd or
even valuation k-1; its valuations are half-integers stored in half-units.
"""

from fractions import Fraction

from .errors import (
    DegenerateInput,
    DivideByZero,
    InvalidParameter,
    InvalidResidue,
    PrecisionExhausted,
    ShapeMismatch,
)

INF = float("inf")


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise InvalidParameter(f"p must be an odd prime, got {p}")


def int_valuation(x: int, p: int) -> int:
    """Exact p-adic valuation of a nonzero integer."""
    if x == 0:
        raise DegenerateInput("valuation of integer zero is undefined")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


class PadicScalar:
    """Immutable capped-precision element of Q_p."""

    __slots__ = ("p", "v", "u", "N")

    def __init__(self, p: int, v, u: int, N: int):
        if N < 1:
            raise InvalidParameter("N must be >= 1")
        if u and (u % p == 0 or not 0 < u < p**N):
            raise InvalidParameter("unit digits must be a reduced unit mod p^N")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "N", N)

    def __setattr__(self, name, value):
        raise AttributeError("PadicScalar is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int, N: int, A=INF) -> "PadicScalar":
        """Zero known modulo p^A; exact for A = +inf."""
        return cls(p, A, 0, N)

    @classmethod
    def one(cls, p: int, N: int) -> "PadicScalar":
        return cls(p, 0, 1, N)

    @classmethod
    def from_int(cls, x: int, p: int, N: int) -> "PadicScalar":
        if x == 0:
            return cls.zero(p, N)
        v = int_valuation(x, p)
        u = (x // p**v) % p**N
        return cls(p, v, u, N)

    @classmethod
    def from_rational(cls, num: int, den: int, p: int, N: int) -> "PadicScalar":
        if den == 0:
            raise DivideByZero("rational with denominator zero")
        if num == 0:
            return cls.zero(p, N)
        vn = int_valuation(num, p)
        vd = int_valuation(den, p)
        un = num // p**vn
        ud = den // p**vd
        u = un * pow(ud, -1, p**N) % p**N
        return cls(p, vn - vd, u, N)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.u == 0

    def abs_precision(self):
        """The modulus exponent: this scalar is known modulo p^abs_precision."""
        return self.v + self.N if self.u else self.v

    def truncate(self, N: int) -> "PadicScalar":
        if N >= self.N:
            return self
        return PadicScalar(self.p, self.v, self.u % self.p**N, N)

    def _mod(self, A, N: int) -> "PadicScalar":
        """This scalar modulo p^A, with at most N relative digits."""
        if A == INF:
            return self.truncate(N)
        if self.v >= A:
            return PadicScalar(self.p, A, 0, N)
        if self.u:
            N = min(N, A - self.v)
        return self.truncate(N)

    def _check_compatible(self, other: "PadicScalar") -> None:
        if self.p != other.p:
            raise ShapeMismatch("mixed primes")

    # -- ring operations ---------------------------------------------------

    def add(self, other: "PadicScalar") -> "PadicScalar":
        self._check_compatible(other)
        N = min(self.N, other.N)
        # a zero known mod p^A reduces the other operand mod p^A; only an
        # exact zero caps its relative precision
        if not self.u:
            return other._mod(self.v, N if self.v == INF else other.N)
        if not other.u:
            return self._mod(other.v, N if other.v == INF else self.N)
        p = self.p
        vmin = min(self.v, other.v)
        abs_prec = min(self.abs_precision(), other.abs_precision())
        room = abs_prec - vmin
        mod = p**room
        t = (self.u * p ** (self.v - vmin) + other.u * p ** (other.v - vmin)) % mod
        if t == 0:
            return PadicScalar(p, abs_prec, 0, N)
        extra = int_valuation(t, p)
        v = vmin + extra
        return PadicScalar(p, v, t // p**extra, abs_prec - v)

    def __add__(self, other):
        if isinstance(other, int):
            other = PadicScalar.from_int(other, self.p, self.N)
        if not isinstance(other, PadicScalar):
            return NotImplemented
        return self.add(other)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero():
            return self
        return PadicScalar(self.p, self.v, self.p**self.N - self.u, self.N)

    def __sub__(self, other):
        if isinstance(other, int):
            other = PadicScalar.from_int(other, self.p, self.N)
        if not isinstance(other, PadicScalar):
            return NotImplemented
        return self.add(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = PadicScalar.from_int(other, self.p, self.N)
        if not isinstance(other, PadicScalar):
            return NotImplemented
        self._check_compatible(other)
        N = min(self.N, other.N)
        if not (self.u and other.u):
            return PadicScalar(self.p, self.v + other.v, 0, N)
        return PadicScalar(self.p, self.v + other.v, self.u * other.u % self.p**N, N)

    __rmul__ = __mul__

    def inv(self) -> "PadicScalar":
        if self.is_zero():
            raise DivideByZero("inverse of zero at working precision")
        return PadicScalar(self.p, -self.v, pow(self.u, -1, self.p**self.N), self.N)

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        if e == 0:
            return PadicScalar.one(self.p, self.N)
        mod = self.p**self.N
        return PadicScalar(self.p, self.v * e, pow(self.u, e, mod), self.N)

    def shift(self, k: int) -> "PadicScalar":
        """Multiply by p^k: exact, relative precision unchanged."""
        if self.v == INF:
            return self
        return PadicScalar(self.p, self.v + k, self.u, self.N)

    # -- comparison and io -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = PadicScalar.from_int(other, self.p, self.N)
        if not isinstance(other, PadicScalar):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def identical(self, other: "PadicScalar") -> bool:
        """Bit-level representation equality (digits, valuation, precision)."""
        return (self.p, self.v, self.u, self.N) == (other.p, other.v, other.u, other.N)

    def __repr__(self):
        if self.is_zero():
            zero = "0" if self.v == INF else f"O({self.p}^{self.v})"
            return f"PadicScalar({self.p}, {zero}; N={self.N})"
        return f"PadicScalar({self.p}, {self.u}*{self.p}^{self.v}; N={self.N})"

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "N": self.N,
            "v": "inf" if self.v == INF else self.v,
            "u": str(self.u),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PadicScalar":
        from .errors import MalformedInput

        try:
            p = int(obj["p"])
            N = int(obj["N"])
            v = obj["v"]
            u = int(obj["u"])
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInput(f"bad scalar object: {exc}") from exc
        if v == "inf":
            if u != 0:
                raise MalformedInput("infinite valuation with nonzero digits")
            return cls.zero(p, N)
        try:
            return cls(p, int(v), u, N)
        except InvalidParameter as exc:
            raise MalformedInput(str(exc)) from exc


def teichmuller(a: int, p: int, N: int) -> PadicScalar:
    """The (p-1)-st root of unity congruent to a mod p.

    Newton's iteration on X^(p-1) - 1 from a: the derivative (p-1) X^(p-2)
    is a unit, so each step doubles the digits, and N digits take about
    log2(N) steps.
    """
    check_odd_prime(p)
    if a % p == 0:
        raise InvalidResidue(f"{a} is divisible by {p}")
    if N < 1:
        raise InvalidParameter("N must be >= 1")
    x, k = a % p, 1
    while k < N:
        k = min(2 * k, N)
        mod = p**k
        y = pow(x, p - 1, mod)
        x = (x - (y - 1) * x * pow((p - 1) * y, -1, mod)) % mod
    return PadicScalar(p, 0, x, N)


def val_growth_constant(x: PadicScalar) -> int:
    """c = v_p(x - 1) for x in 1 + pZ_p, x != 1 at working precision."""
    d = x - PadicScalar.one(x.p, x.N)
    if d.is_zero():
        raise DegenerateInput("x = 1 at working precision")
    if d.v < 1:
        raise InvalidResidue("x is not congruent to 1 mod p")
    return d.v


def verify_val_growth(x: PadicScalar, n: int) -> bool:
    """Check v_p(x^(p^n) - 1) = n + v_p(x - 1) within available precision."""
    c = val_growth_constant(x)
    if n + c >= x.N:
        raise PrecisionExhausted("target valuation exceeds working precision")
    y = x ** (x.p**n) - 1
    return y.v == n + c


class QuadExtScalar:
    """a + b*alpha with alpha^2 = s, over capped-precision base scalars."""

    __slots__ = ("a", "b", "s")

    def __init__(self, a: PadicScalar, b: PadicScalar, s: PadicScalar):
        if a.p != b.p or a.p != s.p:
            raise ShapeMismatch("components live over different primes")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "s", s)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExtScalar is immutable")

    @property
    def p(self) -> int:
        return self.a.p

    @property
    def N(self) -> int:
        return min(self.a.N, self.b.N)

    @classmethod
    def lift(cls, a: PadicScalar, s: PadicScalar) -> "QuadExtScalar":
        return cls(a, PadicScalar.zero(a.p, a.N), s)

    @classmethod
    def zero(cls, p: int, N: int, s: PadicScalar) -> "QuadExtScalar":
        z = PadicScalar.zero(p, N)
        return cls(z, z, s)

    @classmethod
    def one(cls, p: int, N: int, s: PadicScalar) -> "QuadExtScalar":
        return cls(PadicScalar.one(p, N), PadicScalar.zero(p, N), s)

    def _coerce(self, other):
        if isinstance(other, QuadExtScalar):
            if not (self.s is other.s or self.s == other.s):
                raise ShapeMismatch("mixed quadratic extensions")
            return other
        if isinstance(other, int):
            other = PadicScalar.from_int(other, self.p, self.N)
        if isinstance(other, PadicScalar):
            return QuadExtScalar.lift(other, self.s)
        return None

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def half_val(self):
        """Valuation in half-units: 2*v_p(self); +inf for zero.

        Exact because v(a) is an integer while v(b*alpha) sits in
        (k-1)/2 + Z, and ties cannot produce extra cancellation in a
        genuine (non-split) quadratic extension.
        """
        va = 2 * self.a.v if not self.a.is_zero() else INF
        vb = 2 * self.b.v + self.s.v if not self.b.is_zero() else INF
        return min(va, vb)

    def norm(self) -> PadicScalar:
        """(a + b*alpha)(a - b*alpha) = a^2 - s*b^2."""
        return self.a * self.a - self.s * self.b * self.b

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExtScalar(self.a + o.a, self.b + o.b, self.s)

    __radd__ = __add__

    def __neg__(self):
        return QuadExtScalar(-self.a, -self.b, self.s)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a = self.a * o.a + self.s * self.b * o.b
        b = self.a * o.b + self.b * o.a
        return QuadExtScalar(a, b, self.s)

    __rmul__ = __mul__

    def inv(self) -> "QuadExtScalar":
        n = self.norm()
        if n.is_zero():
            raise DivideByZero("norm vanishes at working precision")
        ninv = n.inv()
        return QuadExtScalar(self.a * ninv, -self.b * ninv, self.s)

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        out = QuadExtScalar.one(self.p, self.N, self.s)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def shift(self, k: int) -> "QuadExtScalar":
        return QuadExtScalar(self.a.shift(k), self.b.shift(k), self.s)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).is_zero()

    __hash__ = None

    def __repr__(self):
        return f"QuadExtScalar({self.a!r} + {self.b!r}*alpha; alpha^2={self.s!r})"

    def to_json(self) -> dict:
        return {"a": self.a.to_json(), "b": self.b.to_json(), "s": self.s.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "QuadExtScalar":
        from .errors import MalformedInput

        try:
            return cls(
                PadicScalar.from_json(obj["a"]),
                PadicScalar.from_json(obj["b"]),
                PadicScalar.from_json(obj["s"]),
            )
        except (KeyError, TypeError) as exc:
            raise MalformedInput(f"bad quadratic scalar: {exc}") from exc


def half_val_fraction(x) -> Fraction:
    """Valuation of a base or quadratic scalar as an exact Fraction."""
    if isinstance(x, QuadExtScalar):
        h = x.half_val()
        return INF if h == INF else Fraction(int(h), 2)
    return INF if x.is_zero() else Fraction(x.v)
