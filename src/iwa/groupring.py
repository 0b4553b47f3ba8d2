"""Group algebra of Delta x Gamma_n over capped-precision scalars.

Elements are (p-1) x p^(n-1) coefficient grids c[a][r]: a indexes powers of
the fixed generator of the torsion part Delta (the smallest primitive root
g mod p), r indexes powers of the cyclic generator gamma of order p^(n-1).
Multiplication is convolution, with a-indices mod p-1 and r-indices mod
p^(n-1).  An element over Q_p(alpha), alpha^2 = s, is two such base grids
(A, B) meaning A + alpha B; every operation whose other operand is a base
element or scalar runs on each leg alone.

The gamma-direction factors through the coprime splitting
x^(p^(n-1)) - 1 = prod_m Phi_{p^m}(x), m = 0..n-1, which yields evaluation
slots gamma -> zeta_{p^m}.  Divisibility by phi(m) and exact division with
a canonical (slot-zeroed) quotient run through that splitting.  Its
idempotents are exact rationals in closed form (CrtContext), so slot results
depend on their inputs alone; their denominators cost at most n-1 digits of
absolute precision, and CRT-backed operations require N >= n + 10.  Unit
inversion does not split: it is Newton's iteration on whole grids.

The element-level precision N reported here is the grid minimum; single
coefficients may certify slightly more after cancellation-free paths.
"""

from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CyclotomicScalar, _fold, primitive_root
from .errors import (
    BadIndex,
    BadLevel,
    InvalidParameter,
    MalformedInput,
    NotAUnit,
    NotDivisible,
    PrecisionExhausted,
    ShapeMismatch,
)
from .padic import INF, PadicScalar, QuadExtScalar, check_odd_prime, teichmuller

BASE = "base"
QUAD = "quad"


# -- the convolution kernel ---------------------------------------------------
#
# Every grid product (element products and with them the Newton steps of
# unit inversion, the CRT projector correction and reconstruction) is one
# exact cyclic convolution over Z/R x Z/C of non-negative integer grids,
# R = p-1 and C = p^(n-1), done by Kronecker substitution: each grid is
# packed into one integer with a slot per coefficient, the two integers are
# multiplied once, and the product is folded back along both cyclic
# directions.  Precision follows
# PadicScalar.__mul__ pair by pair: the coefficient at k is known modulo
# p^cap with cap = min(A1 + v2, v1 + A2) over the nonzero pairs meeting at
# k, A = v + N.  Valuations and absolute caps take few distinct values in a
# grid, so that minimum is found class by class with 0/1 products.


def _pack(vals, R, C, width):
    """One integer with `width` bytes per slot; rows strided 2C slots."""
    pad = bytes(C * width)
    return int.from_bytes(
        b"".join(
            b"".join(x.to_bytes(width, "little") for x in vals[a * C:(a + 1) * C]) + pad
            for a in range(R)
        ),
        "little",
    )


def _unpack(prod, R, C, width):
    """Fold a product of two packed grids mod (R, C) and read its R*C slots.

    Slots hold non-negative sums below 2^(8 width), so the folds never carry.
    """
    row_bits = 16 * R * C * width
    prod = (prod & ((1 << row_bits) - 1)) + (prod >> row_bits)
    low = int.from_bytes((b"\xff" * (C * width) + bytes(C * width)) * R, "little")
    prod = (prod & low) + ((prod >> (8 * C * width)) & low)
    buf = prod.to_bytes(2 * R * C * width, "little")
    return [
        int.from_bytes(buf[o:o + width], "little")
        for a in range(R)
        for o in range(2 * a * C * width, (2 * a + 1) * C * width, width)
    ]


@dataclass
class _Leg:
    """A flat scalar grid as integers p^(v - e) u over a common valuation e.

    `by_v` and `by_abs` map each valuation and each absolute cap v + N of
    the nonzero coefficients to its packed 0/1 indicator grid.
    """

    e: int
    ints: list
    by_v: dict
    by_abs: dict


def _indicator_width(R, C):
    return (2 + (R * C).bit_length() + 7) // 8


def _leg(flat, R, C):
    """The _Leg of a flat grid of PadicScalars; None when all are zero."""
    nonzero = [i for i, c in enumerate(flat) if c.u]
    if not nonzero:
        return None
    p = flat[nonzero[0]].p
    e = min(flat[i].v for i in nonzero)
    ints = [0] * len(flat)
    by_v, by_abs = {}, {}
    for i in nonzero:
        c = flat[i]
        ints[i] = c.u * p ** (c.v - e)
        by_v.setdefault(c.v, []).append(i)
        by_abs.setdefault(c.v + c.N, []).append(i)
    w = _indicator_width(R, C)

    def packed(classes):
        out = {}
        for key, where in classes.items():
            ind = [0] * len(flat)
            for i in where:
                ind[i] = 1
            out[key] = _pack(ind, R, C, w)
        return out

    return _Leg(e, ints, packed(by_v), packed(by_abs))


def _convolve(f, g, R, C):
    """Cyclic product of two legs: (e, sums, caps), or None if one is zero.

    The product coefficient at k is sums[k] * p^e, exact up to the digits
    the factors do not know; caps[k] is its absolute precision, None where
    no nonzero pair meets.
    """
    if f is None or g is None:
        return None
    width = (
        max(f.ints).bit_length() + max(g.ints).bit_length() + (R * C).bit_length() + 7
    ) // 8
    sums = _unpack(_pack(f.ints, R, C, width) * _pack(g.ints, R, C, width), R, C, width)
    # candidate class sums A1 + v2 and v1 + A2, smallest first; a position
    # takes the first sum whose class pair meets there
    cands = sorted(
        {
            (a + v, x, y)
            for one, other in ((f.by_abs, g.by_v), (g.by_abs, f.by_v))
            for a, x in one.items()
            for v, y in other.items()
        }
    )
    caps = [None] * (R * C)
    left = sum(1 for s in sums if s)
    w = _indicator_width(R, C)
    for total, x, y in cands:
        for k, hit in enumerate(_unpack(x * y, R, C, w)):
            if hit and caps[k] is None:
                caps[k] = total
                left -= 1
        if not left:
            break
    return f.e + g.e, sums, caps


def _scalars(p, parts, zero, size):
    """Flat PadicScalars of a sum of convolutions; `zero` where none survives."""
    parts = [x for x in parts if x is not None]
    if not parts:
        return [zero] * size
    e = min(x[0] for x in parts)
    sums, caps = [0] * size, [None] * size
    for pe, psums, pcaps in parts:
        scale = p ** (pe - e)
        sums = [s + t * scale for s, t in zip(sums, psums)]
        caps = [
            c if d is None else d if c is None else min(c, d)
            for c, d in zip(caps, pcaps)
        ]
    out = []
    for s, cap in zip(sums, caps):
        if cap is None:
            out.append(zero)
            continue
        t = s % p ** (cap - e)
        if not t:
            out.append(PadicScalar.zero(p, zero.N, cap))
            continue
        v = 0
        while t % p == 0:
            t //= p
            v += 1
        out.append(PadicScalar(p, e + v, t, cap - e - v))
    return out


def _flat(grid):
    return [c for row in grid for c in row]


def _unflat(flat, C):
    return [flat[i:i + C] for i in range(0, len(flat), C)]


# -- elements -----------------------------------------------------------------


def _grid(p, n, rows):
    """A validated tuple-of-tuples grid of base scalars."""
    grid = tuple(tuple(row) for row in rows)
    if len(grid) != p - 1 or any(len(row) != p ** (n - 1) for row in grid):
        raise ShapeMismatch("coefficient grid has the wrong shape")
    for row in grid:
        for c in row:
            if not isinstance(c, PadicScalar) or c.p != p:
                raise ShapeMismatch("coefficient outside the declared ring")
    return grid


def _zeros_like(grid):
    """Zeros at each coefficient's precision: the alpha leg of a lift."""
    return [[PadicScalar.zero(c.p, c.N) for c in row] for row in grid]


def _same_s(s, t) -> bool:
    return s is t or s == t


def _sum_scaled(terms):
    """Sum of grid * scalar over the (grid, scalar) terms with both present."""
    out = None
    for grid, x in terms:
        if grid is None or x is None:
            continue
        t = [[c * x for c in row] for row in grid]
        out = t if out is None else [[a + b for a, b in zip(r, q)] for r, q in zip(out, t)]
    return out


class GroupRingElem:
    """Immutable element of the level-n group algebra.

    `legs` holds one base grid, or two (A, B) meaning A + alpha B with
    alpha^2 = s; `kind` follows from their number.
    """

    __slots__ = ("p", "n", "s", "N", "legs")

    def __init__(self, p: int, n: int, coeffs, b=None, s=None):
        check_odd_prime(p)
        if n < 1:
            raise InvalidParameter("level n must be >= 1")
        if (b is None) != (s is None):
            raise InvalidParameter("a quadratic element needs its alpha leg and alpha^2")
        legs = tuple(_grid(p, n, g) for g in ((coeffs,) if b is None else (coeffs, b)))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "N", min(c.N for leg in legs for row in leg for c in row))
        object.__setattr__(self, "legs", legs)

    def __setattr__(self, name, value):
        raise AttributeError("GroupRingElem is immutable")

    @property
    def kind(self) -> str:
        return QUAD if len(self.legs) == 2 else BASE

    @property
    def coeffs(self):
        """The grid of a base element."""
        if len(self.legs) == 2:
            raise InvalidParameter("a quadratic element has two grids: read .legs")
        return self.legs[0]

    @property
    def cols(self) -> int:
        return self.p ** (self.n - 1)

    @property
    def rows(self) -> int:
        return self.p - 1

    def _map(self, fn):
        """Apply fn to every coefficient of every leg."""
        legs = ([[fn(c) for c in row] for row in leg] for leg in self.legs)
        return GroupRingElem(self.p, self.n, *legs, s=self.s)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, p, n, N):
        return cls(p, n, [[PadicScalar.zero(p, N)] * p ** (n - 1) for _ in range(p - 1)])

    @classmethod
    def monomial(cls, p, n, N, scalar, a=0, r=0):
        grid = [[PadicScalar.zero(p, N)] * p ** (n - 1) for _ in range(p - 1)]
        grid[a % (p - 1)][r % p ** (n - 1)] = scalar
        return cls(p, n, grid)

    @classmethod
    def one(cls, p, n, N):
        return cls.monomial(p, n, N, PadicScalar.one(p, N))

    # -- structure -----------------------------------------------------------

    def _check(self, other):
        if (self.p, self.n) != (other.p, other.n):
            raise ShapeMismatch("operands live in different group rings")
        if self.s is not None and other.s is not None and not _same_s(self.s, other.s):
            raise ShapeMismatch("mixed quadratic extensions")

    def nnz(self) -> int:
        flats = [[c for row in leg for c in row] for leg in self.legs]
        return sum(1 for cs in zip(*flats) if any(c.u for c in cs))

    def is_zero(self) -> bool:
        return all(c.is_zero() for leg in self.legs for row in leg for c in row)

    def __add__(self, other):
        self._check(other)
        if len(self.legs) != len(other.legs):
            raise ShapeMismatch("operands live over different scalar rings")
        legs = (
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(g, h)]
            for g, h in zip(self.legs, other.legs)
        )
        return GroupRingElem(self.p, self.n, *legs, s=self.s)

    def __neg__(self):
        return self._map(lambda c: -c)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Convolution; a base factor multiplies each leg of a quadratic one."""
        self._check(other)
        p, R, C = self.p, self.rows, self.cols
        zero = PadicScalar.zero(p, min(self.N, other.N))
        f = [_leg(_flat(leg), R, C) for leg in self.legs]
        g = [_leg(_flat(leg), R, C) for leg in other.legs]
        if len(f) == 2 and len(g) == 2:
            # (A + alpha B)(C + alpha D) = (AC + s BD) + alpha (AD + BC)
            fsb = None
            if f[1] is not None and g[1] is not None:
                fsb = _leg([self.s * c for c in _flat(self.legs[1])], R, C)
            parts = [
                [_convolve(f[0], g[0], R, C), _convolve(fsb, g[1], R, C)],
                [_convolve(f[0], g[1], R, C), _convolve(f[1], g[0], R, C)],
            ]
        else:
            parts = [[_convolve(x, y, R, C)] for x in f for y in g]
        legs = (_unflat(_scalars(p, part, zero, R * C), C) for part in parts)
        return GroupRingElem(p, self.n, *legs, s=self.s if self.s is not None else other.s)

    def scale(self, x):
        """Coefficient-wise multiplication by a base or quadratic scalar.

        By x = xa + alpha xb the legs become (xa A + s xb B, xb A + xa B);
        terms whose scalar part is zero, or whose B is absent, are left out,
        so scaling by alpha or its inverse is a leg swap and one base scaling.
        """
        if isinstance(x, PadicScalar):
            return self._map(lambda c: c * x)
        if self.s is not None and not _same_s(self.s, x.s):
            raise ShapeMismatch("mixed quadratic extensions")
        if x.is_zero():
            return self.to_quad(x.s)._map(lambda c: c * x.a)
        A, B = self.legs[0], self.legs[1] if len(self.legs) == 2 else None
        xa = None if x.a.is_zero() else x.a
        xb = None if x.b.is_zero() else x.b
        sxb = None if xb is None or B is None else x.s * xb
        new_a = _sum_scaled([(A, xa), (B, sxb)])
        new_b = _sum_scaled([(A, xb), (B, xa)])
        if new_a is None:
            new_a = _zeros_like(new_b)
        if new_b is None:
            new_b = _zeros_like(new_a)
        return GroupRingElem(self.p, self.n, new_a, new_b, s=x.s)

    def shift_p(self, k: int):
        """Multiply by p^k; exact, no precision cost."""
        return self._map(lambda c: c.shift(k))

    def to_quad(self, s: PadicScalar) -> "GroupRingElem":
        if self.s is not None:
            if not _same_s(self.s, s):
                raise ShapeMismatch("element already lives in another extension")
            return self
        A = self.legs[0]
        return GroupRingElem(self.p, self.n, A, _zeros_like(A), s=s)

    def min_valuation(self):
        """Smallest coefficient valuation; the alpha leg adds v(alpha) = v(s)/2."""
        shifts = (0,) if self.s is None else (0, Fraction(self.s.v, 2))
        return min(
            (
                Fraction(c.v) + h
                for leg, h in zip(self.legs, shifts)
                for row in leg
                for c in row
                if c.u
            ),
            default=INF,
        )

    def __eq__(self, other):
        if not isinstance(other, GroupRingElem):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def identical(self, other) -> bool:
        """Bit-level equality of every stored digit, valuation, precision."""
        if (self.p, self.n, len(self.legs)) != (other.p, other.n, len(other.legs)):
            return False
        return all(
            c1.identical(c2)
            for g, h in zip(self.legs, other.legs)
            for r1, r2 in zip(g, h)
            for c1, c2 in zip(r1, r2)
        )

    def __repr__(self):
        return (
            f"GroupRingElem(p={self.p}, n={self.n}, {self.kind}, "
            f"N={self.N}, nnz={self.nnz()})"
        )

    def to_json(self) -> dict:
        if self.s is None:
            coeffs = [[c.to_json() for c in row] for row in self.legs[0]]
        else:
            coeffs = [
                [QuadExtScalar(a, b, self.s).to_json() for a, b in zip(ra, rb)]
                for ra, rb in zip(*self.legs)
            ]
        return {"p": self.p, "n": self.n, "ring": self.kind, "coeffs": coeffs}

    @classmethod
    def from_json(cls, obj: dict) -> "GroupRingElem":
        try:
            p = int(obj["p"])
            n = int(obj["n"])
            kind = obj["ring"]
            raw = obj["coeffs"]
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInput(f"bad group-ring object: {exc}") from exc
        s = None
        if kind == QUAD:
            grid = [[QuadExtScalar.from_json(c) for c in row] for row in raw]
            s = grid[0][0].s if grid and grid[0] else None
            if any(not _same_s(c.s, s) for row in grid for c in row):
                raise MalformedInput("inconsistent alpha^2 across grid")
            legs = ([[c.a for c in row] for row in grid], [[c.b for c in row] for row in grid])
        elif kind == BASE:
            legs = ([[PadicScalar.from_json(c) for c in row] for row in raw],)
        else:
            raise MalformedInput("scalar ring must be base or quad")
        try:
            return cls(p, n, *legs, s=s)
        except (ShapeMismatch, InvalidParameter) as exc:
            raise MalformedInput(str(exc)) from exc


# -- distinguished elements ---------------------------------------------------


def phi(p: int, n: int, m: int, N: int) -> GroupRingElem:
    """The image of sum_i gamma^(i p^(m-1)) at level n; equals p for m >= n."""
    if m < 1:
        raise BadIndex("phi is defined for m >= 1")
    if m >= n:
        return GroupRingElem.monomial(p, n, N, PadicScalar.from_int(p, p, N))
    out = GroupRingElem.zeros(p, n, N)
    grid = [list(row) for row in out.coeffs]
    one = PadicScalar.one(p, N)
    step = p ** (m - 1)
    for i in range(p):
        grid[0][i * step] = one
    return GroupRingElem(p, n, grid)


def twist_gamma(f: GroupRingElem, j: int) -> GroupRingElem:
    """Ring automorphism gamma -> u^(-j) gamma, u = 1 + p; base elements."""
    w = PadicScalar.from_int(1 + f.p, f.p, f.N).inv() ** j
    t = PadicScalar.one(f.p, f.N)
    cols = f.cols
    grid = [list(row) for row in f.coeffs]
    for r in range(cols):
        for a in range(f.rows):
            c = grid[a][r]
            if not c.is_zero():
                grid[a][r] = c * t
        t = t * w
    return GroupRingElem(f.p, f.n, grid)


def b_sums(f: GroupRingElem, m: int) -> tuple:
    """Fold the gamma-direction mod p^m: b_{r,a} = sum over lifts of c_{r',a}.

    One folded row per torsion index, leg after leg.
    """
    if not 1 <= m < f.n:
        raise BadLevel(f"need 1 <= m < n, got m={m}, n={f.n}")
    pm = f.p**m
    rows = []
    for leg in f.legs:
        for row in leg:
            out = list(row[:pm])
            for rp in range(pm, f.cols):
                out[rp % pm] = out[rp % pm] + row[rp]
            rows.append(tuple(out))
    return tuple(rows)


def divisible_by_phi(f: GroupRingElem, m: int) -> bool:
    """Divisibility by phi(m): the folded sums are constant on classes mod p^(m-1)."""
    block = f.p ** (m - 1)
    for row in b_sums(f, m):
        for r in range(block, len(row)):
            if not (row[r] - row[r % block]).is_zero():
                return False
    return True


# -- CRT along the gamma-direction --------------------------------------------


def _widest(terms):
    """The largest relative precision among the rows of (m, rows) terms."""
    return max(c.N for _, rows in terms for row in rows for c in row)


class CrtContext:
    """The slot idempotents of (p, n) in closed form.

    With eps_m = p^-(n-1-m) sum_{p^m | j} gamma^j, the average over the
    subgroup <gamma^(p^m)>, the idempotent of slot m is e_0 = eps_0 and
    e_m = eps_m - eps_(m-1) = p^-(n-m) sum_j (p [p^m | j] - [p^(m-1) | j]) gamma^j
    for m >= 1.  Each is p^-idem_den_exp[m] times an integer polynomial
    `idem_num[m]` with entries in {0, 1, p-1, -1}, so the context holds no
    precision: a slot result is known to the absolute precision of its
    inputs less that exponent.
    """

    def __init__(self, p: int, n: int):
        check_odd_prime(p)
        self.p, self.n = p, n
        cols = p ** (n - 1)
        self.idem_den_exp = [n - 1] + [n - m for m in range(1, n)]
        self.idem_num = [[1] * cols] + [
            [p * (j % p**m == 0) - (j % p ** (m - 1) == 0) for j in range(cols)]
            for m in range(1, n)
        ]

    def _idem_leg(self, m, K):
        """e_m on the trivial torsion row, each coefficient carried at K digits."""
        p, den = self.p, self.p ** self.idem_den_exp[m]
        e = [PadicScalar.from_rational(c, den, p, K) for c in self.idem_num[m]]
        return _leg(e + [PadicScalar.zero(p, K)] * ((p - 2) * len(e)), p - 1, len(e))

    # -- operations ----------------------------------------------------------

    def decompose(self, f: GroupRingElem):
        """Per-slot evaluations gamma -> zeta_{p^m}, one row per torsion index.

        Slot m of a row is its value at zeta_{p^m}, the integer fold of
        eval_char with weight 1: every coefficient keeps its own digits, a
        finite zero caps the slots it feeds, and a zero slot is 0 mod p^A
        (exact when nothing feeds it) with N = f.N.  A quadratic element
        gives one such list per leg, as a pair.
        """
        p, N = self.p, f.N

        def slot(row, m):
            return CyclotomicScalar(p, m, _fold(p, (row,), (1,), 1, INF, m, 1, N))

        legs = [[[slot(row, m) for row in grid] for m in range(self.n)] for grid in f.legs]
        return legs[0] if len(legs) == 1 else tuple(legs)

    def _times_idem(self, terms, N):
        """Grid of sum_m (slot rows of m) * e_m, zero coefficients at N.

        `terms` pairs m with p-1 base coefficient rows (one per torsion
        index) of length at most p^(n-1).  Each e_m is carried at the
        largest relative precision among the rows, so the product's digits
        are capped by the rows alone.
        """
        p, R, C = self.p, self.p - 1, self.p ** (self.n - 1)
        zero = PadicScalar.zero(p, N)
        K = _widest(terms)

        def leg(rows):
            flat = []
            for row in rows:
                flat.extend(row)
                flat.extend([zero] * (C - len(row)))
            return _leg(flat, R, C)

        convs = [_convolve(leg(rows), self._idem_leg(m, K), R, C) for m, rows in terms]
        return _unflat(_scalars(p, convs, zero, R * C), C)

    def reconstruct(self, comps, s=None) -> GroupRingElem:
        """Inverse of decompose; with alpha^2 = s, comps is the pair of legs."""
        terms = [
            [(m, [slot.coeffs for slot in c[m]]) for m in range(self.n)]
            for c in ((comps,) if s is None else comps)
        ]
        grids = (self._times_idem(t, _widest(t)) for t in terms)
        return GroupRingElem(self.p, self.n, *grids, s=s)

    def divide_exact(self, f: GroupRingElem, m: int) -> GroupRingElem:
        """Canonical quotient by phi(m): slot m of the result is zero.

        Polynomial long division by the monic factor (exact, denominator
        free), then one projector correction to flatten slot m; only the
        correction spends the reconstruction denominators.  Leg by leg.
        """
        if m < 1:
            raise BadIndex("phi index must be >= 1")
        if m >= self.n:
            return f.shift_p(-1)
        if not divisible_by_phi(f, m):
            raise NotDivisible(f"element is not a multiple of phi({m})")
        zero = PadicScalar.zero(self.p, f.N)
        legs = (self._quotient(grid, m, zero) for grid in f.legs)
        return GroupRingElem(self.p, self.n, *legs, s=f.s)

    def _quotient(self, grid, m, zero):
        p, cols = self.p, self.p ** (self.n - 1)
        block = p ** (m - 1)
        degphi = (p - 1) * block
        quots, slots = [], []
        for row in grid:
            work = list(row)
            quot = [zero] * cols
            for d in range(cols - 1, degphi - 1, -1):
                lead = work[d]
                if lead.is_zero():
                    continue
                base = d - degphi
                quot[base] = lead
                for i in range(p):
                    work[base + i * block] = work[base + i * block] - lead
            slot = CyclotomicScalar.from_exponent_terms(p, m, list(enumerate(quot)), zero)
            quots.append(quot)
            slots.append(slot.coeffs)
        corr = self._times_idem([(m, slots)], zero.N)
        return [[q - c for q, c in zip(qr, cr)] for qr, cr in zip(quots, corr)]


_CONTEXTS: dict[tuple, CrtContext] = {}


def crt_context(p: int, n: int, N: int) -> CrtContext:
    if N < n + 10:
        raise PrecisionExhausted(f"CRT at level {n} needs N >= {n + 10}")
    ctx = _CONTEXTS.get((p, n))
    if ctx is None:
        ctx = _CONTEXTS[(p, n)] = CrtContext(p, n)
    return ctx


def crt_decompose(f: GroupRingElem):
    return crt_context(f.p, f.n, f.N).decompose(f)


def divide_exact(f: GroupRingElem, m: int) -> GroupRingElem:
    if m >= f.n:
        return f.shift_p(-1)
    return crt_context(f.p, f.n, f.N).divide_exact(f, m)


def invert_unit(f: GroupRingElem) -> GroupRingElem:
    """Inverse of f = p^v g, g a unit of Z_p[G], by Newton's iteration.

    The seed inverts g's torsion augmentation in Z_p[Delta] through its p-1
    character values, so 1 - g x lies in the radical J = (p, gamma - 1).
    Each step x <- x + x (1 - g x), two kernel products on whole grids,
    squares that residual, and J^(p^(n-1)) lies in p Z_p[G].
    """
    if f.s is not None:
        raise ShapeMismatch("unit inversion runs over the base ring")
    p, R, C = f.p, f.rows, f.cols
    v = min((c.v for row in f.coeffs for c in row if c.u), default=None)
    if v is None:
        raise NotAUnit("zero is not a unit")
    g = f.shift_p(-v)
    N = g.N
    w = teichmuller(primitive_root(p), p, N)
    aug = [sum(row[1:], row[0]) for row in g.coeffs]
    vals = [sum((aug[a] * w ** (d * a % R) for a in range(1, R)), aug[0]) for d in range(R)]
    if any(x.is_zero() or x.v > 0 for x in vals):
        raise NotAUnit("not p^v times a unit of Z_p[G]: a character value vanishes mod p")
    scale = PadicScalar.from_rational(1, R, p, N)
    seed = [[PadicScalar.zero(p, N)] * C for _ in range(R)]
    for a in range(R):
        terms = [vals[d].inv() * w ** (-d * a % R) for d in range(R)]
        seed[a][0] = sum(terms[1:], terms[0]) * scale
    x, one = GroupRingElem(p, f.n, seed), GroupRingElem.one(p, f.n, N)
    for _ in range((N * C).bit_length() + 1):
        r = one - g * x
        if r.is_zero():
            return x.shift_p(-v)
        x = x + x * r
    raise PrecisionExhausted(f"Newton inversion did not converge at N={N}")


def slot_is_zero(comps, m: int) -> bool:
    return all(row.is_zero() for row in comps[m])


def random_element(p, n, N, rng) -> GroupRingElem:
    """Seeded random base element with integral coefficients below p^6."""
    bound = p**6
    grid = [
        [PadicScalar.from_int(rng.randbelow(bound), p, N) for _ in range(p ** (n - 1))]
        for _ in range(p - 1)
    ]
    return GroupRingElem(p, n, grid)
