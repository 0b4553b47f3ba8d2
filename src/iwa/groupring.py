"""Group algebra of Delta x Gamma_n over capped-precision scalars.

Elements are (p-1) x p^(n-1) coefficient grids c[a][r]: a indexes powers of
the fixed generator of the torsion part Delta (the smallest primitive root
g mod p), r indexes powers of the cyclic generator gamma of order p^(n-1).
Multiplication is convolution, with a-indices mod p-1 and r-indices mod
p^(n-1).

The gamma-direction factors through the coprime splitting
x^(p^(n-1)) - 1 = prod_m Phi_{p^m}(x), m = 0..n-1, which yields evaluation
slots gamma -> zeta_{p^m}.  Divisibility by phi(m), exact division with a
canonical (slot-zeroed) quotient, and unit inversion all run through that
splitting.  Reconstruction denominators cost at most n-1 digits of absolute
precision, so CRT-backed operations require N >= n + 10.

The element-level precision N reported here is the grid minimum; single
coefficients may certify slightly more after cancellation-free paths.
"""

from dataclasses import dataclass

from .cyclotomic import CyclotomicScalar, phi_degree, primitive_root
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
from .padic import PadicScalar, QuadExtScalar, check_odd_prime, teichmuller

BASE = "base"
QUAD = "quad"


# -- the convolution kernel ---------------------------------------------------
#
# Every grid product (element products, the CRT projector correction and
# reconstruction) is one exact cyclic convolution over Z/R x Z/C of
# non-negative integer grids, R = p-1 and C = p^(n-1), done by Kronecker
# substitution: each grid is packed into one integer with a slot per
# coefficient, the two integers are multiplied once, and the product is
# folded back along both cyclic directions.  Precision follows
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
            out.append(zero)
            continue
        v = 0
        while t % p == 0:
            t //= p
            v += 1
        out.append(PadicScalar(p, e + v, t, cap - e - v))
    return out


class GroupRingElem:
    """Immutable element of the level-n group algebra."""

    __slots__ = ("p", "n", "kind", "s", "N", "coeffs")

    def __init__(self, p: int, n: int, coeffs, kind: str = BASE, s=None):
        check_odd_prime(p)
        if n < 1:
            raise InvalidParameter("level n must be >= 1")
        if kind not in (BASE, QUAD):
            raise InvalidParameter("scalar ring must be base or quad")
        if kind == QUAD and s is None:
            raise InvalidParameter("quadratic ring needs alpha^2")
        coeffs = tuple(tuple(row) for row in coeffs)
        if len(coeffs) != p - 1 or any(len(row) != p ** (n - 1) for row in coeffs):
            raise ShapeMismatch("coefficient grid has the wrong shape")
        want = QuadExtScalar if kind == QUAD else PadicScalar
        N = None
        for row in coeffs:
            for c in row:
                if not isinstance(c, want) or c.p != p:
                    raise ShapeMismatch("coefficient outside the declared ring")
                N = c.N if N is None else min(N, c.N)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("GroupRingElem is immutable")

    # -- scalar helpers ------------------------------------------------------

    def _zero_scalar(self, N=None):
        N = N or self.N
        if self.kind == QUAD:
            return QuadExtScalar.zero(self.p, N, self.s)
        return PadicScalar.zero(self.p, N)

    def _one_scalar(self, N=None):
        N = N or self.N
        if self.kind == QUAD:
            return QuadExtScalar.one(self.p, N, self.s)
        return PadicScalar.one(self.p, N)

    @property
    def cols(self) -> int:
        return self.p ** (self.n - 1)

    @property
    def rows(self) -> int:
        return self.p - 1

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, p, n, N, kind=BASE, s=None):
        z = (
            QuadExtScalar.zero(p, N, s)
            if kind == QUAD
            else PadicScalar.zero(p, N)
        )
        grid = [[z] * p ** (n - 1) for _ in range(p - 1)]
        return cls(p, n, grid, kind, s)

    @classmethod
    def monomial(cls, p, n, N, scalar, a=0, r=0):
        kind = QUAD if isinstance(scalar, QuadExtScalar) else BASE
        s = scalar.s if kind == QUAD else None
        out = cls.zeros(p, n, N, kind, s)
        grid = [list(row) for row in out.coeffs]
        grid[a % (p - 1)][r % p ** (n - 1)] = scalar
        return cls(p, n, grid, kind, s)

    @classmethod
    def one(cls, p, n, N, kind=BASE, s=None):
        o = QuadExtScalar.one(p, N, s) if kind == QUAD else PadicScalar.one(p, N)
        return cls.monomial(p, n, N, o)

    @classmethod
    def from_gamma_poly(cls, p, n, N, scalars):
        """Element supported on the trivial torsion row."""
        scalars = list(scalars)
        kind = QUAD if scalars and isinstance(scalars[0], QuadExtScalar) else BASE
        s = scalars[0].s if kind == QUAD else None
        out = cls.zeros(p, n, N, kind, s)
        grid = [list(row) for row in out.coeffs]
        for r, c in enumerate(scalars):
            grid[0][r] = c
        return cls(p, n, grid, kind, s)

    def _replace_grid(self, grid):
        return GroupRingElem(self.p, self.n, grid, self.kind, self.s)

    # -- structure -----------------------------------------------------------

    def _check(self, other):
        if (self.p, self.n, self.kind) != (other.p, other.n, other.kind):
            raise ShapeMismatch("operands live in different group rings")
        if self.kind == QUAD and not (self.s is other.s or self.s == other.s):
            raise ShapeMismatch("mixed quadratic extensions")

    def nnz(self) -> int:
        return sum(0 if c.is_zero() else 1 for row in self.coeffs for c in row)

    def is_zero(self) -> bool:
        return all(c.is_zero() for row in self.coeffs for c in row)

    def __add__(self, other):
        self._check(other)
        grid = [
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.coeffs, other.coeffs)
        ]
        return self._replace_grid(grid)

    def __neg__(self):
        return self._replace_grid([[-c for c in row] for row in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        p, R, C = self.p, self.rows, self.cols
        zero = PadicScalar.zero(p, min(self.N, other.N))
        f = [c for row in self.coeffs for c in row]
        g = [c for row in other.coeffs for c in row]
        if self.kind == BASE:
            prod = _convolve(_leg(f, R, C), _leg(g, R, C), R, C)
            flat = _scalars(p, [prod], zero, R * C)
        else:
            # (A + alpha B)(C + alpha D) = (AC + s BD) + alpha (AD + BC)
            s = self.s
            fa, fb = _leg([c.a for c in f], R, C), _leg([c.b for c in f], R, C)
            ga, gb = _leg([c.a for c in g], R, C), _leg([c.b for c in g], R, C)
            fsb = None
            if fb is not None and gb is not None:
                fsb = _leg([s * c.b for c in f], R, C)
            a = _scalars(
                p, [_convolve(fa, ga, R, C), _convolve(fsb, gb, R, C)], zero, R * C
            )
            b = _scalars(
                p, [_convolve(fa, gb, R, C), _convolve(fb, ga, R, C)], zero, R * C
            )
            flat = [QuadExtScalar(x, y, s) for x, y in zip(a, b)]
        return self._replace_grid([flat[i:i + C] for i in range(0, R * C, C)])

    def scale(self, x):
        """Coefficient-wise multiplication by a scalar."""
        if isinstance(x, QuadExtScalar) and self.kind == BASE:
            return self.to_quad(x.s).scale(x)
        return self._replace_grid([[c * x for c in row] for row in self.coeffs])

    def shift_p(self, k: int):
        """Multiply by p^k; exact, no precision cost."""
        return self._replace_grid(
            [[c.shift(k) for c in row] for row in self.coeffs]
        )

    def truncate(self, N: int):
        return self._replace_grid(
            [[c.truncate(N) for c in row] for row in self.coeffs]
        )

    def to_quad(self, s: PadicScalar) -> "GroupRingElem":
        if self.kind == QUAD:
            if not (self.s is s or self.s == s):
                raise ShapeMismatch("element already lives in another extension")
            return self
        grid = [[QuadExtScalar.lift(c, s) for c in row] for row in self.coeffs]
        return GroupRingElem(self.p, self.n, grid, QUAD, s)

    def part_a(self) -> "GroupRingElem":
        if self.kind != QUAD:
            return self
        return GroupRingElem(self.p, self.n, [[c.a for c in row] for row in self.coeffs])

    def part_b(self) -> "GroupRingElem":
        if self.kind != QUAD:
            raise InvalidParameter("base elements have no alpha part")
        return GroupRingElem(self.p, self.n, [[c.b for c in row] for row in self.coeffs])

    def min_valuation(self):
        """Smallest coefficient valuation (half-integers count as halves)."""
        from .padic import half_val_fraction

        return min(half_val_fraction(c) for row in self.coeffs for c in row)

    def __eq__(self, other):
        if not isinstance(other, GroupRingElem):
            return NotImplemented
        self._check(other)
        return (self - other).is_zero()

    __hash__ = None

    def identical(self, other) -> bool:
        """Bit-level equality of every stored digit, valuation, precision."""
        if (self.p, self.n, self.kind) != (other.p, other.n, other.kind):
            return False
        for r1, r2 in zip(self.coeffs, other.coeffs):
            for c1, c2 in zip(r1, r2):
                if self.kind == QUAD:
                    if not (c1.a.identical(c2.a) and c1.b.identical(c2.b)):
                        return False
                elif not c1.identical(c2):
                    return False
        return True

    def __repr__(self):
        return (
            f"GroupRingElem(p={self.p}, n={self.n}, {self.kind}, "
            f"N={self.N}, nnz={self.nnz()})"
        )

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "ring": self.kind,
            "coeffs": [[c.to_json() for c in row] for row in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GroupRingElem":
        try:
            p = int(obj["p"])
            n = int(obj["n"])
            kind = obj["ring"]
            raw = obj["coeffs"]
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInput(f"bad group-ring object: {exc}") from exc
        if kind == QUAD:
            grid = [[QuadExtScalar.from_json(c) for c in row] for row in raw]
            s = grid[0][0].s if grid and grid[0] else None
            for row in grid:
                for c in row:
                    if not (c.s is s or c.s == s):
                        raise MalformedInput("inconsistent alpha^2 across grid")
            elem_s = s
        else:
            grid = [[PadicScalar.from_json(c) for c in row] for row in raw]
            elem_s = None
        try:
            return cls(p, n, grid, kind, elem_s)
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


def phi_twisted(p: int, n: int, m: int, j: int, N: int) -> GroupRingElem:
    """sum_i u^(-j i p^(m-1)) gamma^(i p^(m-1)) with u = 1 + p.

    Substitutes gamma -> u^(-j) gamma before reducing gamma-exponents mod
    p^(n-1); for m >= n the gamma-powers collapse and the element is the
    scalar (u^(-j p^m) - 1)/(u^(-j p^(m-1)) - 1), a unit times p.
    For m < n this agrees with twist_gamma(phi(m), j).
    """
    if m < 1:
        raise BadIndex("phi is defined for m >= 1")
    cols = p ** (n - 1)
    step = p ** (m - 1)
    uinv = PadicScalar.from_int(1 + p, p, N).inv()
    w = uinv ** (j * step)
    grid = [[PadicScalar.zero(p, N)] * cols for _ in range(p - 1)]
    t = PadicScalar.one(p, N)
    for i in range(p):
        r = i * step % cols
        grid[0][r] = grid[0][r] + t
        t = t * w
    return GroupRingElem(p, n, grid)


def twist_gamma(f: GroupRingElem, j: int) -> GroupRingElem:
    """Ring automorphism gamma -> u^(-j) gamma, u = 1 + p."""
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
    return f._replace_grid(grid)


def twist_full(f: GroupRingElem, r: int) -> GroupRingElem:
    """Twist by the r-th power of the cyclotomic character.

    Each group element sigma is scaled by chi(sigma)^r: the gamma-part by
    u^(r * gamma-exponent), the torsion part by omega(g)^(r * a).
    """
    p, N = f.p, f.N
    u = PadicScalar.from_int(1 + p, p, N) ** r
    w = teichmuller(primitive_root(p), p, N)
    wpow = [w ** ((r * a) % (p - 1)) for a in range(p - 1)]
    grid = []
    for a in range(f.rows):
        t = wpow[a]
        row = []
        upow = PadicScalar.one(p, N)
        for rp in range(f.cols):
            c = f.coeffs[a][rp]
            row.append(c if c.is_zero() else c * t * upow)
            upow = upow * u
        grid.append(row)
    return f._replace_grid(grid)


def delta_component(f: GroupRingElem, d: int):
    """Gamma-coefficient vector of the image under the d-th torsion idempotent.

    Returns w with w_r = (p-1)^(-1) sum_a c[a][r] omega(g)^(da); summing the
    re-embedded components over d recovers f.
    """
    p, N = f.p, f.N
    if not 0 <= d < p - 1:
        raise BadIndex("torsion character index out of range")
    w = teichmuller(primitive_root(p), p, N)
    inv = PadicScalar.from_rational(1, p - 1, p, N)
    wpow = [w ** ((d * a) % (p - 1)) for a in range(p - 1)]
    out = []
    for rp in range(f.cols):
        acc = None
        for a in range(f.rows):
            c = f.coeffs[a][rp]
            if c.is_zero():
                continue
            t = c * wpow[a]
            acc = t if acc is None else acc + t
        out.append(f._zero_scalar() if acc is None else acc * inv)
    return tuple(out)


def delta_embed(p: int, n: int, vec, d: int, N: int) -> GroupRingElem:
    """Re-embed a gamma-vector as the d-isotypic grid w_r * omega(g)^(-da)."""
    w = teichmuller(primitive_root(p), p, N)
    grid = []
    for a in range(p - 1):
        t = w ** ((-d * a) % (p - 1))
        grid.append([c * t for c in vec])
    sample = vec[0]
    kind = QUAD if isinstance(sample, QuadExtScalar) else BASE
    return GroupRingElem(p, n, grid, kind, sample.s if kind == QUAD else None)


def is_plus_admissible(f: GroupRingElem) -> bool:
    """True iff all p-1 torsion-row sums agree at working precision."""
    sums = []
    for row in f.coeffs:
        acc = row[0]
        for c in row[1:]:
            acc = acc + c
        sums.append(acc)
    return all((s - sums[0]).is_zero() for s in sums[1:])


@dataclass(frozen=True)
class BsumTable:
    """Partial coefficient sums b[a][r] over lifts of r mod p^m."""

    p: int
    n: int
    m: int
    values: tuple


def b_sums(f: GroupRingElem, m: int) -> BsumTable:
    """Fold the gamma-direction mod p^m: b_{r,a} = sum over lifts of c_{r',a}."""
    if not 1 <= m < f.n:
        raise BadLevel(f"need 1 <= m < n, got m={m}, n={f.n}")
    pm = f.p**m
    rows = []
    for row in f.coeffs:
        out = list(row[:pm])
        for rp in range(pm, f.cols):
            out[rp % pm] = out[rp % pm] + row[rp]
        rows.append(tuple(out))
    return BsumTable(f.p, f.n, m, tuple(rows))


def divisible_by_phi(f: GroupRingElem, m: int) -> bool:
    """Divisibility by phi(m): the folded sums are constant on classes mod p^(m-1)."""
    table = b_sums(f, m)
    block = f.p ** (m - 1)
    for row in table.values:
        for r in range(block, len(row)):
            if not (row[r] - row[r % block]).is_zero():
                return False
    return True


# -- CRT along the gamma-direction --------------------------------------------


def _phi_int_poly(p: int, m: int) -> dict:
    """Integer coefficients of the m-th factor: x - 1 for m = 0."""
    if m == 0:
        return {0: -1, 1: 1}
    return {i * p ** (m - 1): 1 for i in range(p)}


class CrtContext:
    """Cached splitting data for (p, n): slot values, inverses, idempotents."""

    def __init__(self, p: int, n: int, N: int):
        check_odd_prime(p)
        if N < n + 10:
            raise PrecisionExhausted(f"CRT at level {n} needs N >= {n + 10}")
        self.p, self.n, self.N = p, n, N
        cols = p ** (n - 1)
        # one generic inversion per level: the product of the other factors
        # at the level-L root, which scales the idempotent polynomial
        self.inv_prod = [None] * n
        for L in range(n):
            prod = None
            for m in range(n):
                if m == L:
                    continue
                terms = [
                    (e, PadicScalar.from_int(c, p, N))
                    for e, c in _phi_int_poly(p, m).items()
                ]
                v = CyclotomicScalar.from_exponent_terms(
                    p, L, terms, PadicScalar.zero(p, N)
                )
                prod = v if prod is None else prod * v
            if prod is None:  # n = 1: empty product
                prod = CyclotomicScalar.from_scalar(PadicScalar.one(p, N), L)
            self.inv_prod[L] = prod.inv()
        # idempotent polynomials e_m(x) of degree < p^(n-1)
        self.idem = []
        self.idem_den_exp = []
        for m in range(n):
            q = {0: 1}
            for m2 in range(n):
                if m2 == m:
                    continue
                q = _poly_mul_int(q, _phi_int_poly(p, m2))
            lift = self.inv_prod[m].coeffs
            poly = [PadicScalar.zero(p, N)] * cols
            for e, c in q.items():
                for i, sc in enumerate(lift):
                    if sc.is_zero():
                        continue
                    k = (e + i) % cols
                    poly[k] = poly[k] + sc * c
            self.idem.append(tuple(poly))
            vals = [c.v for c in poly if not c.is_zero()]
            self.idem_den_exp.append(max(0, -min(vals)) if vals else 0)
        # each e_m as a grid on the trivial torsion row, ready for the kernel
        pad = [PadicScalar.zero(p, N)] * ((p - 2) * cols)
        self.idem_legs = [_leg(list(e) + pad, p - 1, cols) for e in self.idem]

    # -- operations ----------------------------------------------------------

    def decompose(self, f: GroupRingElem):
        """Per-slot evaluations gamma -> zeta_{p^m}, one row per torsion index."""
        comps = []
        for m in range(self.n):
            rows = []
            for row in f.coeffs:
                terms = [(r, c) for r, c in enumerate(row) if not c.is_zero()]
                rows.append(
                    CyclotomicScalar.from_exponent_terms(
                        self.p, m, terms, f._zero_scalar()
                    )
                )
            comps.append(rows)
        return comps

    def _times_idem(self, terms, kind, s, N):
        """Grid of sum_m (slot rows of m) * e_m, zero coefficients at N.

        `terms` pairs m with p-1 coefficient rows (one per torsion index) of
        length at most p^(n-1); quadratic rows split into their legs.
        """
        p, R, C = self.p, self.p - 1, self.p ** (self.n - 1)
        zero = PadicScalar.zero(p, N)

        def leg(rows, part):
            flat = []
            for row in rows:
                flat.extend(row if part is None else [getattr(c, part) for c in row])
                flat.extend([zero] * (C - len(row)))
            return _leg(flat, R, C)

        legs = []
        for part in (None,) if kind == BASE else ("a", "b"):
            convs = [
                _convolve(leg(rows, part), self.idem_legs[m], R, C) for m, rows in terms
            ]
            legs.append(_scalars(p, convs, zero, R * C))
        flat = legs[0] if kind == BASE else [
            QuadExtScalar(a, b, s) for a, b in zip(*legs)
        ]
        return [flat[i:i + C] for i in range(0, R * C, C)]

    def reconstruct(self, comps, kind=BASE, s=None) -> GroupRingElem:
        terms = [(m, [slot.coeffs for slot in comps[m]]) for m in range(self.n)]
        grid = self._times_idem(terms, kind, s, self.N)
        return GroupRingElem(self.p, self.n, grid, kind, s)

    def divide_exact(self, f: GroupRingElem, m: int) -> GroupRingElem:
        """Canonical quotient by phi(m): slot m of the result is zero.

        Polynomial long division by the monic factor (exact, denominator
        free), then one projector correction to flatten slot m; only the
        correction spends the reconstruction denominators.
        """
        if m < 1:
            raise BadIndex("phi index must be >= 1")
        if m >= self.n:
            return f.shift_p(-1)
        if not divisible_by_phi(f, m):
            raise NotDivisible(f"element is not a multiple of phi({m})")
        p, cols = self.p, self.p ** (self.n - 1)
        block = p ** (m - 1)
        degphi = (p - 1) * block
        quots, slots = [], []
        for row in f.coeffs:
            work = list(row)
            quot = [f._zero_scalar()] * cols
            for d in range(cols - 1, degphi - 1, -1):
                lead = work[d]
                if lead.is_zero():
                    continue
                base = d - degphi
                quot[base] = lead
                for i in range(p):
                    work[base + i * block] = work[base + i * block] - lead
            slot = CyclotomicScalar.from_exponent_terms(
                p, m, [(r, c) for r, c in enumerate(quot)], f._zero_scalar()
            )
            quots.append(quot)
            slots.append(slot.coeffs)
        corr = self._times_idem([(m, slots)], f.kind, f.s, f.N)
        grid = [[q - c for q, c in zip(qr, cr)] for qr, cr in zip(quots, corr)]
        return GroupRingElem(self.p, self.n, grid, f.kind, f.s)

    def invert_unit(self, f: GroupRingElem) -> GroupRingElem:
        p, N = self.p, f.N
        w = teichmuller(primitive_root(p), p, N)
        winv = [w ** ((-d) % (p - 1)) for d in range(p - 1)]
        scale = PadicScalar.from_rational(1, p - 1, p, N)
        comps = self.decompose(f)
        out = []
        for m in range(self.n):
            rows = comps[m]
            components = []
            for d in range(p - 1):
                acc = None
                for a in range(p - 1):
                    t = rows[a].scalar_mul(w ** ((d * a) % (p - 1)))
                    acc = t if acc is None else acc + t
                if acc.is_zero():
                    raise NotAUnit(
                        f"slot (m={m}, d={d}) vanishes at working precision"
                    )
                components.append(acc)
            # identical components (common for trivial-torsion-row support)
            # share one expensive inversion
            inverted = []
            for d, comp in enumerate(components):
                hit = None
                for d2 in range(d):
                    if (components[d2] - comp).is_zero():
                        hit = inverted[d2]
                        break
                inverted.append(hit if hit is not None else comp.inv())
            back = []
            for a in range(p - 1):
                acc = None
                for d in range(p - 1):
                    t = inverted[d].scalar_mul(winv[(d * a) % (p - 1)])
                    acc = t if acc is None else acc + t
                back.append(acc.scalar_mul(scale))
            out.append(back)
        return self.reconstruct(out, f.kind, f.s)


def _poly_mul_int(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            k = e1 + e2
            out[k] = out.get(k, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


_CONTEXTS: dict[tuple, CrtContext] = {}


def crt_context(p: int, n: int, N: int) -> CrtContext:
    if N < n + 10:
        raise PrecisionExhausted(f"CRT at level {n} needs N >= {n + 10}")
    key = (p, n)
    ctx = _CONTEXTS.get(key)
    if ctx is None or ctx.N < N:
        ctx = CrtContext(p, n, max(N, 40))
        _CONTEXTS[key] = ctx
    return ctx


def crt_decompose(f: GroupRingElem):
    return crt_context(f.p, f.n, f.N).decompose(f)


def crt_reconstruct(comps, N: int | None = None) -> GroupRingElem:
    sample = comps[0][0].coeffs[0]
    p = sample.p
    n = len(comps)
    N = N or sample.N
    kind = QUAD if isinstance(sample, QuadExtScalar) else BASE
    s = sample.s if kind == QUAD else None
    return crt_context(p, n, N).reconstruct(comps, kind, s)


def divide_exact(f: GroupRingElem, m: int) -> GroupRingElem:
    if m >= f.n:
        if m < 1:
            raise BadIndex("phi index must be >= 1")
        return f.shift_p(-1)
    return crt_context(f.p, f.n, f.N).divide_exact(f, m)


def invert_unit(f: GroupRingElem) -> GroupRingElem:
    return crt_context(f.p, f.n, f.N).invert_unit(f)


def slot_is_zero(comps, m: int) -> bool:
    return all(row.is_zero() for row in comps[m])


def random_element(p, n, N, rng, kind=BASE, s=None, digits=6) -> GroupRingElem:
    """Seeded random element with integral coefficients below p^digits."""
    bound = p**digits

    def draw():
        x = PadicScalar.from_int(rng.randbelow(bound), p, N)
        if kind == QUAD:
            y = PadicScalar.from_int(rng.randbelow(bound), p, N)
            return QuadExtScalar(x, y, s)
        return x

    grid = [[draw() for _ in range(p ** (n - 1))] for _ in range(p - 1)]
    return GroupRingElem(p, n, grid, kind, s)
