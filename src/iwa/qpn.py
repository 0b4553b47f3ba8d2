"""Exact-rational model of the p-power cyclotomic tower's linear algebra.

Everything here runs over Q with Fraction coefficients, no rounding anywhere.
That is faithful for the p-adic statements being checked: a p-power
cyclotomic polynomial is irreducible over Q_p as well, so
[Q_p(zeta_{p^n}) : Q_p] = [Q(zeta_{p^n}) : Q] and every span dimension or
kernel rank computed rationally equals its p-adic counterpart.

An element is a vector of length phi(p^n) representing a polynomial in
zeta_{p^n} reduced mod the p^n-th cyclotomic polynomial
1 + X^D + ... + X^{(p-2)D}, D = p^{n-1}.  The reduced representative of an
element of the level-m subfield is supported on exponents divisible by
p^{n-m}, which makes subfield membership and projection a support check.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .cyclotomic import phi_degree, primitive_root
from .errors import BadIndex, InvalidParameter
from .halflogs import MINUS, PLUS
from .padic import check_odd_prime

_ZERO = Fraction(0)
_ONE = Fraction(1)


class CycRationalElem:
    """Polynomial in zeta_{p^n} over Q, canonically reduced."""

    __slots__ = ("p", "n", "coeffs")

    def __init__(self, p, n, coeffs):
        check_odd_prime(p)
        if n < 0:
            raise BadIndex("level must be nonnegative")
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != phi_degree(p, n):
            raise InvalidParameter("coefficient vector has the wrong length")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CycRationalElem is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, p, n):
        return cls(p, n, (_ZERO,) * phi_degree(p, n))

    @classmethod
    def one(cls, p, n):
        return cls.rational(p, n, _ONE)

    @classmethod
    def rational(cls, p, n, q):
        v = [_ZERO] * phi_degree(p, n)
        v[0] = Fraction(q)
        return cls(p, n, v)

    @classmethod
    def from_exponents(cls, p, n, terms):
        """Sum of c * zeta^e over (e, c) pairs, exponents taken mod p^n."""
        v = [_ZERO] * phi_degree(p, n)
        if n == 0:
            for _, c in terms:
                v[0] += Fraction(c)
            return cls(p, n, v)
        modulus = p**n
        block = p ** (n - 1)
        for e, c in terms:
            c = Fraction(c)
            if not c:
                continue
            e %= modulus
            q, t = divmod(e, block)
            if q < p - 1:
                v[e] += c
            else:
                # zeta^((p-1)D + t) = -(zeta^t + zeta^(D+t) + ...)
                for i in range(p - 1):
                    v[i * block + t] -= c
        return cls(p, n, v)

    @classmethod
    def root(cls, p, n, e):
        """zeta_{p^n}^e."""
        return cls.from_exponents(p, n, [(e, _ONE)])

    # -- ring operations -------------------------------------------------

    def _check(self, other):
        if (self.p, self.n) != (other.p, other.n):
            raise InvalidParameter("mixed cyclotomic levels")

    def __add__(self, other):
        self._check(other)
        return CycRationalElem(
            self.p, self.n, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self):
        return CycRationalElem(self.p, self.n, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, q):
        q = Fraction(q)
        return CycRationalElem(self.p, self.n, [q * a for a in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        terms = []
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    terms.append((i + j, a * b))
        return CycRationalElem.from_exponents(self.p, self.n, terms)

    def __eq__(self, other):
        if not isinstance(other, CycRationalElem):
            return NotImplemented
        return (self.p, self.n) == (other.p, other.n) and self.coeffs == other.coeffs

    __hash__ = None

    def is_zero(self):
        return not any(self.coeffs)

    # -- Galois and level moves -------------------------------------------

    def sigma(self, a):
        """The automorphism zeta -> zeta^a; a must be prime to p."""
        if a % self.p == 0:
            raise InvalidParameter("conjugation exponent must be a unit")
        if self.n == 0:
            return self
        terms = [
            (a * i, c) for i, c in enumerate(self.coeffs) if c
        ]
        return CycRationalElem.from_exponents(self.p, self.n, terms)

    def embed(self, n2):
        """Inclusion into the level-n2 field, n2 >= n."""
        if n2 < self.n:
            raise BadIndex("embedding must not lower the level")
        step = self.p ** (n2 - self.n)
        v = [_ZERO] * phi_degree(self.p, n2)
        for i, c in enumerate(self.coeffs):
            if c:
                v[i * step] = c
        return CycRationalElem(self.p, n2, v)

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
        return CycRationalElem(p, m, [step * c for c in x.coeffs[::step]])
    top = p ** (n - 1)
    total = phi_degree(p, n) * x.coeffs[0] - top * sum(x.coeffs[top::top])
    return CycRationalElem.rational(p, 0, total)


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


def galois_orbit(x: CycRationalElem) -> list:
    """All conjugates of x, in increasing exponent order."""
    if x.n == 0:
        return [x]
    return [x.sigma(a) for a in range(1, x.p**x.n) if a % x.p]


def galois_span_dim(x: CycRationalElem) -> int:
    """Rank over Q of the span of the Galois orbit."""
    return rank_of_vectors([y.coeffs for y in galois_orbit(x)])


# -- exact linear algebra -----------------------------------------------------


def _int_row(row):
    """Clear denominators and divide by the content; 0 rows stay 0."""
    den = 1
    for c in row:
        den = den * c.denominator // gcd(den, c.denominator)
    out = [int(c * den) for c in row]
    g = 0
    for v in out:
        g = gcd(g, v)
    if g > 1:
        out = [v // g for v in out]
    return out


def _echelon(rows, ncols):
    """Integer row echelon by cross-multiplication; returns (pivots, kept).

    pivots is a list of (original_row_index, pivot_column); kept holds the
    reduced integer rows in pivot order.  Deterministic: first usable row
    wins each column.
    """
    work = [(i, list(r)) for i, r in enumerate(rows)]
    pivots = []
    kept = []
    col = 0
    while col < ncols and work:
        hit = None
        for idx, (orig, r) in enumerate(work):
            if r[col]:
                hit = idx
                break
        if hit is None:
            col += 1
            continue
        orig, prow = work.pop(hit)
        pv = prow[col]
        survivors = []
        for oi, r in work:
            if r[col]:
                rv = r[col]
                r = [a * pv - b * rv for a, b in zip(r, prow)]
                g = 0
                for v in r:
                    g = gcd(g, v)
                if g > 1:
                    r = [v // g for v in r]
            if any(r):
                survivors.append((oi, r))
        work = survivors
        pivots.append((orig, col))
        kept.append(prow)
        col += 1
    return pivots, kept


def rank_of_vectors(vectors) -> int:
    rows = [_int_row(v) for v in vectors]
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0
    return len(_echelon(rows, len(rows[0]))[0])


def independent_subset(vectors) -> list:
    """Indices of a maximal independent subset, first-come order."""
    rows = [_int_row(v) for v in vectors]
    if not rows:
        return []
    pivots, _ = _echelon(rows, len(rows[0]))
    return sorted(orig for orig, _ in pivots)


def kernel_basis(vectors, ncols) -> list:
    """Basis of the right kernel of the stacked rows, as Fraction tuples."""
    rows = [_int_row(v) for v in vectors]
    rows = [r for r in rows if any(r)]
    if not rows:
        return [
            tuple(_ONE if j == i else _ZERO for j in range(ncols))
            for i in range(ncols)
        ]
    _, kept = _echelon(rows, ncols)
    pivot_cols = []
    for r in kept:
        for j, v in enumerate(r):
            if v:
                pivot_cols.append(j)
                break
    free_cols = [j for j in range(ncols) if j not in set(pivot_cols)]
    basis = []
    for f in free_cols:
        x = [_ZERO] * ncols
        x[f] = _ONE
        # kept rows are in echelon order; solve bottom-up
        for r, pc in zip(reversed(kept), reversed(pivot_cols)):
            s = _ZERO
            for j in range(pc + 1, ncols):
                if r[j] and x[j]:
                    s += Fraction(r[j]) * x[j]
            x[pc] = -s / r[pc]
        basis.append(tuple(x))
    return basis


@dataclass(frozen=True)
class SubspaceBasis:
    """Independent spanning vectors with their rank and defining constraint."""

    vectors: tuple
    rank: int
    constraint: str

    def __post_init__(self):
        if self.vectors and rank_of_vectors(
            [v.coeffs for v in self.vectors]
        ) != self.rank:
            raise InvalidParameter("basis vectors are not independent")
        if len(self.vectors) != self.rank:
            raise InvalidParameter("rank disagrees with the basis size")

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "constraint": self.constraint,
            "vectors": [
                [str(c) for c in v.coeffs] for v in self.vectors
            ],
        }


def _pick_basis(p, n, vectors, rank, constraint) -> SubspaceBasis:
    idx = independent_subset([v.coeffs for v in vectors])
    picked = tuple(vectors[i] for i in idx)
    assert len(picked) == rank
    return SubspaceBasis(picked, rank, constraint)


def _tower_step_generator(p: int, m: int) -> int:
    """A unit generating Gal of level m+1 over level m."""
    if m == 0:
        return primitive_root(p)
    return 1 + p**m


def plus_minus_space(p: int, n: int, sign: str) -> SubspaceBasis:
    """Trace-condition subspace: traces land one layer down at matched steps.

    The condition set runs over m in [0, n-1] of even (plus) or odd (minus)
    parity: trace to level m+1 must lie in level m.  Solved as an exact
    rational kernel.
    """
    if n < 1:
        raise BadIndex("level must be at least 1")
    if sign not in (PLUS, MINUS):
        raise InvalidParameter("sign must be '+' or '-'")
    want = 0 if sign == PLUS else 1
    dim = phi_degree(p, n)
    monomials = [
        CycRationalElem(p, n, [_ONE if j == i else _ZERO for j in range(dim)])
        for i in range(dim)
    ]
    rows = []
    for m in range(n):
        if m % 2 != want:
            continue
        c = _tower_step_generator(p, m)
        traced = [trace(x, m + 1) for x in monomials]
        moved = [t.sigma(c) - t for t in traced]
        for coord in range(phi_degree(p, m + 1)):
            rows.append(tuple(v.coeffs[coord] for v in moved))
    basis_vectors = [
        CycRationalElem(p, n, v) for v in kernel_basis(rows, dim)
    ]
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
    rank = rank_of_vectors([g.coeffs for g in gens])
    return _pick_basis(
        p,
        n,
        gens,
        rank,
        f"constants + orbits of zeta(p^m), m = {start} mod 2, m <= {n}",
    )


def spaces_equal(A: SubspaceBasis, B: SubspaceBasis) -> bool:
    """Mutual containment through ranks of the union."""
    if A.rank != B.rank:
        return False
    rows = [v.coeffs for v in A.vectors] + [v.coeffs for v in B.vectors]
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
        rem = [[_ZERO] * deg for _ in range(cols)]
        rem[0][0] = _ONE
        for r in range(1, cols):
            prev = rem[r - 1]
            cur = [_ZERO] + list(prev[:-1])
            lead = prev[-1]
            if lead:
                for i in range(p - 1):
                    cur[i * block] -= lead
            rem[r] = cur
        for a in range(p - 1):
            for d in range(deg):
                row = [_ZERO] * nvars
                for r in range(cols):
                    if rem[r][d]:
                        row[a * cols + r] = rem[r][d]
                rows.append(row)
    for a in range(1, p - 1):
        row = [_ZERO] * nvars
        for r in range(cols):
            row[r] = -_ONE
            row[a * cols + r] = _ONE
        rows.append(row)
    rank = rank_of_vectors(rows)
    dim = nvars - rank
    expected = r_space(p, n, PLUS).rank
    if dim != expected:
        raise InvalidParameter(
            f"constraint count {dim} disagrees with the plus span {expected}"
        )
    return dim
