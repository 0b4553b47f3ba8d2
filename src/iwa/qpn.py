"""Exact-rational model of the p-power cyclotomic tower's linear algebra.

Everything here runs over Q, no rounding anywhere.  That is faithful for
the p-adic statements being checked: a p-power cyclotomic polynomial is
irreducible over Q_p as well, so [Q_p(zeta_{p^n}) : Q_p] = [Q(zeta_{p^n}) : Q]
and every span dimension or kernel rank computed rationally equals its
p-adic counterpart.

An element is a vector of length phi(p^n) representing a polynomial in
zeta_{p^n} reduced mod the p^n-th cyclotomic polynomial
1 + X^D + ... + X^{(p-2)D}, D = p^{n-1}.  It is stored as integer
numerators over one positive shared denominator, in lowest terms, so equal
elements have equal integers; `coeffs` is the Fraction view.  The reduced
representative of an element of the level-m subfield is supported on
exponents divisible by p^{n-m}, which makes subfield membership and
projection a support check.  The linear algebra runs on integer rows by
fraction-free elimination.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm

from .cyclotomic import phi_degree, primitive_root
from .errors import BadIndex, InvalidParameter
from .halflogs import MINUS, PLUS
from .padic import check_odd_prime


def _root_terms(p, n, e):
    """zeta_{p^n}^e in the reduced power basis, as (index, coefficient) pairs."""
    if n == 0:
        return ((0, 1),)
    block = p ** (n - 1)
    top = (p - 1) * block
    e %= p * block
    if e < top:
        return ((e, 1),)
    # zeta^((p-1)D + t) = -(zeta^t + zeta^(D+t) + ...)
    return tuple((i, -1) for i in range(e - top, top, block))


def _reduce(p, n, terms):
    """Sum of c * zeta^e over (e, c) pairs with integer c, as a reduced vector."""
    v = [0] * phi_degree(p, n)
    for e, c in terms:
        for i, s in _root_terms(p, n, e):
            v[i] += s * c
    return v


def _elem(p, n, nums, den=1):
    """An element from integer numerators over a positive denominator.

    Unchecked: internal callers hand in vectors of the right length.
    """
    x = object.__new__(CycRationalElem)
    x._fill(p, n, nums, den)
    return x


class CycRationalElem:
    """Polynomial in zeta_{p^n} over Q, canonically reduced."""

    __slots__ = ("p", "n", "nums", "den")

    def __init__(self, p, n, coeffs):
        """coeffs are ints or Fractions (or anything Fraction takes)."""
        check_odd_prime(p)
        if n < 0:
            raise BadIndex("level must be nonnegative")
        coeffs = [
            c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs
        ]
        if len(coeffs) != phi_degree(p, n):
            raise InvalidParameter("coefficient vector has the wrong length")
        den = lcm(*(c.denominator for c in coeffs))
        self._fill(p, n, [c.numerator * (den // c.denominator) for c in coeffs], den)

    def _fill(self, p, n, nums, den):
        """Store nums / den in lowest terms."""
        g = gcd(den, *nums)
        if g > 1:
            nums = [a // g for a in nums]
            den //= g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("CycRationalElem is immutable")

    @property
    def coeffs(self):
        """The coordinates as Fractions."""
        den = self.den
        return tuple(Fraction(a, den) for a in self.nums)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, p, n):
        return cls(p, n, [0] * phi_degree(p, n))

    @classmethod
    def one(cls, p, n):
        return cls.rational(p, n, 1)

    @classmethod
    def rational(cls, p, n, q):
        v = [0] * phi_degree(p, n)
        v[0] = Fraction(q)
        return cls(p, n, v)

    @classmethod
    def root(cls, p, n, e):
        """zeta_{p^n}^e."""
        return cls(p, n, _reduce(p, n, [(e, 1)]))

    # -- ring operations -------------------------------------------------

    def _check(self, other):
        if (self.p, self.n) != (other.p, other.n):
            raise InvalidParameter("mixed cyclotomic levels")

    def __add__(self, other):
        self._check(other)
        d1, d2 = self.den, other.den
        den = lcm(d1, d2)
        s, t = den // d1, den // d2
        nums = [a * s + b * t for a, b in zip(self.nums, other.nums)]
        return _elem(self.p, self.n, nums, den)

    def __neg__(self):
        return _elem(self.p, self.n, [-a for a in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, q):
        q = Fraction(q)
        return _elem(
            self.p, self.n, [q.numerator * a for a in self.nums], self.den * q.denominator
        )

    def __mul__(self, other):
        self._check(other)
        terms = [
            (i + j, a * b)
            for i, a in enumerate(self.nums)
            if a
            for j, b in enumerate(other.nums)
            if b
        ]
        return _elem(self.p, self.n, _reduce(self.p, self.n, terms), self.den * other.den)

    def __eq__(self, other):
        if not isinstance(other, CycRationalElem):
            return NotImplemented
        return (self.p, self.n, self.den, self.nums) == (
            other.p, other.n, other.den, other.nums
        )

    __hash__ = None

    def is_zero(self):
        return not any(self.nums)

    # -- Galois and level moves -------------------------------------------

    def sigma(self, a):
        """The automorphism zeta -> zeta^a; a must be prime to p."""
        if a % self.p == 0:
            raise InvalidParameter("conjugation exponent must be a unit")
        if self.n == 0:
            return self
        nums = self.nums
        terms = [(a * i, nums[i]) for i in _support(nums)]
        return _elem(self.p, self.n, _reduce(self.p, self.n, terms), self.den)

    def embed(self, n2):
        """Inclusion into the level-n2 field, n2 >= n."""
        if n2 < self.n:
            raise BadIndex("embedding must not lower the level")
        step = self.p ** (n2 - self.n)
        v = [0] * phi_degree(self.p, n2)
        v[: len(self.nums) * step : step] = self.nums
        return _elem(self.p, n2, v, self.den)

    def __repr__(self):
        return f"CycRationalElem(p={self.p}, n={self.n}, {self.coeffs})"


def trace(x: CycRationalElem, m: int) -> CycRationalElem:
    """Field trace from level n down to level m, in closed form.

    Over level m >= 1, zeta^i traces to p^(n-m) zeta^i if p^(n-m) | i, else
    to 0.  Down to Q, zeta^i of order p traces to -p^(n-1), higher orders to 0.
    """
    p, n = x.p, x.n
    if m > n or m < 0:
        raise BadIndex("trace target must satisfy 0 <= m <= n")
    if m == n:
        return x
    step = p ** (n - m)
    if m:
        return _elem(p, m, [step * c for c in x.nums[::step]], x.den)
    top = p ** (n - 1)
    total = phi_degree(p, n) * x.nums[0] - top * sum(x.nums[top::top])
    return _elem(p, 0, [total], x.den)


def pi_element(p: int, n: int, i: int) -> CycRationalElem:
    """The graded generators: 1, zeta_p + 1/(p-1), then zeta_{p^i}.

    The shift in the i = 1 case makes the full-orbit sum vanish, so every
    generator with i >= 1 has zero trace to the layer below.
    """
    if i < 0 or i > n:
        raise BadIndex("generator index out of range")
    if i == 0:
        return CycRationalElem.one(p, n)
    gen = CycRationalElem.root(p, i, 1).embed(n)
    if i == 1:
        return gen + CycRationalElem.rational(p, n, Fraction(1, p - 1))
    return gen


def dim_graded(p: int, i: int) -> int:
    """Dimension of the i-th graded piece: 1, p-2, then p^(i-2)(p-1)^2."""
    if i == 0:
        return 1
    if i == 1:
        return p - 2
    return p ** (i - 2) * (p - 1) ** 2


def _least_level(x: CycRationalElem) -> int:
    """The least level whose field contains x, read off the support."""
    g = gcd(*(i for i, c in enumerate(x.nums) if c))
    if g == 0:
        return 0
    level = x.n
    while g % x.p == 0:
        g //= x.p
        level -= 1
    return level


def galois_orbit(x: CycRationalElem) -> list:
    """The conjugates sigma_a(x) for the units a below p^l, in increasing order.

    l is the least level containing x.  sigma_a(x) depends only on a mod p^l,
    so these are the first occurrences among all phi(p^n) conjugates; a
    constant is its own single conjugate.
    """
    level = _least_level(x)
    if level == 0:
        return [x]
    return [x.sigma(a) for a in range(1, x.p**level) if a % x.p]


def galois_span_dim(x: CycRationalElem) -> int:
    """Rank over Q of the span of the Galois orbit."""
    return rank_of_vectors([y.nums for y in galois_orbit(x)])


# -- exact linear algebra -----------------------------------------------------


def _int_row(row):
    """Clear denominators and divide by the content; 0 rows stay 0."""
    try:
        g = gcd(*row)  # integer rows; Fractions raise TypeError
    except TypeError:
        den = lcm(*(c.denominator for c in row))
        row = [c.numerator * (den // c.denominator) for c in row]
        g = gcd(*row)
    if g > 1:
        row = [v // g for v in row]
    return row


def _support(row):
    """The columns where row is nonzero."""
    return list(compress(range(len(row)), row))


def _clear(r, col, prow, support):
    """Clear column col of r in place against the pivot row prow.

    support lists the columns where prow is nonzero; only those and the
    nonzero entries of r are touched.
    """
    pv, rv = prow[col], r[col]
    g = gcd(pv, rv)
    a, b = pv // g, rv // g
    if a == -1:
        a, b = 1, -b
    if a != 1:
        for j in _support(r):
            r[j] *= a
    # a r - b prow
    for j in support:
        r[j] -= b * prow[j]
    if a != 1:
        g = gcd(*r)
        if g > 1:
            for j in _support(r):
                r[j] //= g


def _echelon(rows, ncols, reduced=False):
    """Integer row echelon by fraction-free insertion; returns (pivots, kept).

    Rows go in first to last.  Each is cleared, left to right, at the pivot
    columns of the rows kept so far, and is kept with a new pivot at its
    first nonzero column that has none; a row that clears to zero is
    dependent.  pivots lists (original_row_index, pivot_column) and kept the
    matching integer rows, both in the order kept, so the kept rows are the
    first-come maximal independent subset.  With reduced, every pivot column
    is then cleared from the other kept rows, which makes kept a reduced
    echelon form whose pivots are not scaled to 1.
    """
    by_col = {}
    pivots = []
    kept = []
    for i, row in enumerate(rows):
        r = list(row)
        # compress reads r as it is cleared, which touches only later columns
        for col in compress(range(ncols), r):
            hit = by_col.get(col)
            if hit is None:
                by_col[col] = (r, _support(r))
                pivots.append((i, col))
                kept.append(r)
                break
            _clear(r, col, *hit)
    if reduced:
        for col in sorted(by_col, reverse=True):
            prow = by_col[col][0]
            support = _support(prow)
            for r in kept:
                if r[col] and r is not prow:
                    _clear(r, col, prow, support)
    return pivots, kept


def _independent(rows, ncols) -> list:
    """Indices of the first-come maximal independent subset of integer rows.

    Which rows are independent does not depend on the column order, so the
    elimination runs from the last column: the constants and the low-level
    roots, which most conjugates share, sit in the first columns, and
    clearing them first fills the rows in.
    """
    pivots, _ = _echelon(map(reversed, rows), ncols)
    return [i for i, _ in pivots]


def rank_of_vectors(vectors) -> int:
    rows = [_int_row(v) for v in vectors]
    if not rows:
        return 0
    return len(_independent(rows, len(rows[0])))


def kernel_basis(vectors, ncols) -> list:
    """Basis of the right kernel of the stacked rows, as integer tuples.

    One primitive vector per free column of the reduced echelon form: it is
    positive there, zero at the other free columns, and its last nonzero
    entry is that free column's.
    """
    rows = [_int_row(v) for v in vectors]
    pivots, kept = _echelon(rows, ncols, reduced=True)
    pivot_cols = [col for _, col in pivots]
    free = sorted(set(range(ncols)).difference(pivot_cols))
    basis = []
    for f in free:
        hits = [(pc, r[pc], r[f]) for pc, r in zip(pivot_cols, kept) if r[f]]
        scale = lcm(*(d for _, d, _ in hits))
        x = [0] * ncols
        x[f] = scale
        for pc, d, v in hits:
            x[pc] = -v * (scale // d)
        g = gcd(*x)
        basis.append(tuple(v // g for v in x))
    return basis


@dataclass(frozen=True)
class SubspaceBasis:
    """Independent spanning vectors with their rank and defining constraint."""

    vectors: tuple
    rank: int
    constraint: str

    def __post_init__(self):
        if self.vectors and rank_of_vectors(
            [v.nums for v in self.vectors]
        ) != self.rank:
            raise InvalidParameter("basis vectors are not independent")
        if len(self.vectors) != self.rank:
            raise InvalidParameter("rank disagrees with the basis size")


def _pick_basis(vectors, constraint) -> SubspaceBasis:
    """The first-come independent vectors, found and counted by one elimination."""
    idx = _independent([v.nums for v in vectors], len(vectors[0].nums))
    return SubspaceBasis(tuple(vectors[i] for i in idx), len(idx), constraint)


def _tower_step_generator(p: int, m: int) -> int:
    """A unit generating Gal of level m+1 over level m."""
    if m == 0:
        return primitive_root(p)
    return 1 + p**m


def _step_rows(p: int, n: int, m: int) -> list:
    """Integer rows of (sigma_c - 1) Tr_{n -> m+1} on the level-n monomials.

    c generates Gal of level m+1 over level m.  Tr(zeta^i) is
    p^(n-m-1) zeta_{p^(m+1)}^(i / p^(n-m-1)) when p^(n-m-1) divides i, and 0
    otherwise; the rows leave out the common factor p^(n-m-1).  sigma_c - 1
    takes zeta_{p^(m+1)}^j to two reduced roots.  Zero rows are dropped.
    """
    c = _tower_step_generator(p, m)
    step = p ** (n - m - 1)
    width = phi_degree(p, m + 1)
    rows = [[0] * phi_degree(p, n) for _ in range(width)]
    for j in range(width):
        col = j * step
        for k, s in _root_terms(p, m + 1, c * j):
            rows[k][col] += s
        rows[j][col] -= 1
    return [r for r in rows if any(r)]


def plus_minus_space(p: int, n: int, sign: str) -> SubspaceBasis:
    """Trace-condition subspace: traces land one layer down at matched steps.

    The condition set runs over m in [0, n-1] of even (plus) or odd (minus)
    parity: trace to level m+1 must lie in level m.  Solved as an exact
    integer kernel.
    """
    if n < 1:
        raise BadIndex("level must be at least 1")
    if sign not in (PLUS, MINUS):
        raise InvalidParameter("sign must be '+' or '-'")
    check_odd_prime(p)
    want = 0 if sign == PLUS else 1
    rows = []
    for m in range(want, n, 2):
        rows.extend(_step_rows(p, n, m))
    basis_vectors = [_elem(p, n, v) for v in kernel_basis(rows, phi_degree(p, n))]
    return SubspaceBasis(
        tuple(basis_vectors),
        len(basis_vectors),
        f"trace conditions at {'even' if want == 0 else 'odd'} steps, level {n}",
    )


def r_space(p: int, n: int, sign: str) -> SubspaceBasis:
    """Constants plus the parity-matched root-of-unity orbits up to level n."""
    if n < 1:
        raise BadIndex("level must be at least 1")
    if sign not in (PLUS, MINUS):
        raise InvalidParameter("sign must be '+' or '-'")
    start = 2 if sign == PLUS else 1
    gens = [CycRationalElem.one(p, n)]
    for m in range(start, n + 1, 2):
        gens.extend(galois_orbit(CycRationalElem.root(p, m, 1).embed(n)))
    return _pick_basis(
        gens, f"constants + orbits of zeta(p^m), m = {start} mod 2, m <= {n}"
    )


def spaces_equal(A: SubspaceBasis, B: SubspaceBasis) -> bool:
    """Mutual containment through ranks of the union."""
    if A.rank != B.rank:
        return False
    rows = [v.nums for v in A.vectors] + [v.nums for v in B.vectors]
    return rank_of_vectors(rows) == A.rank


def dim_plus_formula(p: int, n: int) -> int:
    """1 + sum of even graded dimensions with 2m <= n."""
    return 1 + sum(dim_graded(p, 2 * m) for m in range(1, n // 2 + 1))


def dim_minus_formula(p: int, n: int) -> int:
    """(p-1) + sum of odd graded dimensions with 2m+1 <= n."""
    return (p - 1) + sum(
        dim_graded(p, 2 * m + 1) for m in range(1, (n - 1) // 2 + 1)
    )


def u_space_dim(p: int, n: int) -> int:
    """Dimension of {divisible by the even phi-factors} with equal row sums.

    Works in the (p-1) p^(n-1)-dimensional rational group algebra: one
    divisibility block per torsion row and even index 2 <= s < n, plus the
    p-2 equal-row-sum conditions.  The result must (and does) match the
    plus-side orbit-span dimension, which is asserted.
    """
    if n < 2:
        raise BadIndex("constraint bookkeeping needs level at least 2")
    cols = p ** (n - 1)
    nvars = (p - 1) * cols
    rows = []
    for s in range(2, n, 2):
        block = p ** (s - 1)
        deg = (p - 1) * block
        # X^r mod (1 + X^block + ... + X^((p-1) block)), built incrementally
        rem = [[0] * deg for _ in range(cols)]
        rem[0][0] = 1
        for r in range(1, cols):
            prev = rem[r - 1]
            cur = [0] + prev[:-1]
            lead = prev[-1]
            if lead:
                for i in range(p - 1):
                    cur[i * block] -= lead
            rem[r] = cur
        for a in range(p - 1):
            for d in range(deg):
                row = [0] * nvars
                for r in range(cols):
                    row[a * cols + r] = rem[r][d]
                rows.append(row)
    for a in range(1, p - 1):
        row = [0] * nvars
        for r in range(cols):
            row[r] = -1
            row[a * cols + r] = 1
        rows.append(row)
    rank = rank_of_vectors(rows)
    dim = nvars - rank
    expected = r_space(p, n, PLUS).rank
    if dim != expected:
        raise InvalidParameter(
            f"constraint count {dim} disagrees with the plus span {expected}"
        )
    return dim
