"""Output checks that do not call the package.

Every function here works on plain Python integers and Fractions.  A p-adic
coefficient arrives as a triple (v, u, N) read off the program's output:
the value u * p^v, known modulo p^(v + N); zero is (None, 0, N).  The
checks recompute what the program should have produced by a different
route (integer long division, integer Teichmueller iteration, closed-form
dimensions) and compare at the precision the output itself claims.

`self_test()` runs every check on hand-checked p = 3, n = 2 cases, both on
the right answer and on a perturbed one that must be rejected.
"""

from fractions import Fraction


class CheckFailed(Exception):
    """The program's output disagrees with the benchmark's own computation."""


# -- p-adic helpers ------------------------------------------------------------


def vp(x, p):
    """p-adic valuation of a nonzero int or Fraction; None for zero."""
    if x == 0:
        return None
    x = Fraction(x)
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def congruent(x, y, p, a):
    """x = y modulo p^a, for rationals that are p-integral up to p^a."""
    d = Fraction(x) - Fraction(y)
    if d == 0:
        return True
    return vp(d, p) >= a


def value(t, p):
    """The rational value of a (v, u, N) triple."""
    v, u, _ = t
    if u == 0:
        return Fraction(0)
    return Fraction(u) * Fraction(p) ** v


def abs_prec(t):
    """Absolute precision v + N of a triple; None for a zero, whose is lost."""
    v, u, N = t
    return None if u == 0 else v + N


def min_prec(triples):
    precs = [abs_prec(t) for t in triples if abs_prec(t) is not None]
    return min(precs) if precs else None


def rel_digits(triples):
    """Smallest relative precision N over a collection of triples."""
    return min(t[2] for t in triples)


# -- cyclotomic polynomials ------------------------------------------------------


def phi_poly(p, m):
    """Integer coefficients of Phi_{p^m}(x), lowest degree first (m >= 1)."""
    step = p ** (m - 1)
    out = [0] * ((p - 1) * step + 1)
    for i in range(p):
        out[i * step] = 1
    return out


def reduce_mod_phi(poly, p, m):
    """Remainder of an integer (or rational) polynomial modulo Phi_{p^m}.

    Phi_{p^m} is monic, so long division stays in the coefficient ring.  For
    m = 0 the modulus is x - 1 and the remainder is the value at 1.
    """
    if m == 0:
        return [sum(poly)]
    div = phi_poly(p, m)
    deg = len(div) - 1
    work = list(poly)
    for top in range(len(work) - 1, deg - 1, -1):
        lead = work[top]
        if lead:
            base = top - deg
            for i, c in enumerate(div):
                if c:
                    work[base + i] -= lead * c
    rem = work[:deg] + [0] * max(0, deg - len(work))
    return rem


# -- divisibility and quotients ----------------------------------------------------


def rows_divisible(grid, p, m, N):
    """Whether every torsion row of an integer grid is divisible by Phi_{p^m}.

    The gamma-direction is Z[x]/(x^(p^(n-1)) - 1) and Phi_{p^m} divides the
    modulus for m < n, so divisibility of the ring element is divisibility
    of each row's representative polynomial; coefficients are known modulo
    p^N, so the remainder only has to vanish to that precision.
    """
    mod = p**N
    for row in grid:
        if any(c % mod for c in reduce_mod_phi(row, p, m)):
            return False
    return True


def check_divisible(answer, grid, p, m, N):
    want = rows_divisible(grid, p, m, N)
    if bool(answer) != want:
        raise CheckFailed(
            f"divisible_by_phi(m={m}) said {answer}, integer reduction says {want}"
        )


def check_quotient(quot, grid, p, n, m):
    """quot * phi(m) == grid, coefficient by coefficient at the quotient's precision.

    phi(m) = sum_{i<p} gamma^(i p^(m-1)) is a 0/1 polynomial, so the product
    row is a sum of p cyclic shifts of the quotient row.
    """
    cols = p ** (n - 1)
    step = p ** (m - 1)
    for a, (qrow, frow) in enumerate(zip(quot, grid)):
        for r in range(cols):
            terms = [qrow[(r - i * step) % cols] for i in range(p)]
            prec = min_prec(terms)
            got = sum(value(t, p) for t in terms)
            if prec is None:
                ok = got == frow[r]
            else:
                ok = congruent(got, frow[r], p, prec)
            if not ok:
                raise CheckFailed(
                    f"quotient by phi({m}) re-multiplies wrong at row {a}, col {r}"
                )


def check_unit_inverse(inv, unit, p):
    """unit * inv == 1 modulo p^(the inverse's own absolute precision).

    unit is an integral integer grid; inv a grid of triples, possibly with
    negative valuations.  Both are scaled to integers by p^s and convolved
    over (Z/(p-1)) x (Z/p^(n-1)).
    """
    rows, cols = len(unit), len(unit[0])
    flat = [t for row in inv for t in row]
    prec = min_prec(flat)
    if prec is None:
        raise CheckFailed("inverse is zero at working precision")
    s = max(0, -min(t[0] for t in flat if t[1]))
    scaled = [[0 if t[1] == 0 else t[1] * p ** (t[0] + s) for t in row] for row in inv]
    prod = [[0] * cols for _ in range(rows)]
    for a1 in range(rows):
        for r1, x in enumerate(unit[a1]):
            if not x:
                continue
            for a2 in range(rows):
                target = prod[(a1 + a2) % rows]
                for r2, y in enumerate(scaled[a2]):
                    if y:
                        target[(r1 + r2) % cols] += x * y
    prod[0][0] -= p**s
    mod = p ** (prec + s)
    for a in range(rows):
        for r in range(cols):
            if prod[a][r] % mod:
                raise CheckFailed(
                    f"unit * inverse differs from 1 at row {a}, col {r} "
                    f"modulo p^{prec}"
                )


# -- character values --------------------------------------------------------------


def primitive_root(p):
    for g in range(2, p):
        x, order = g, 1
        while x != 1:
            x = x * g % p
            order += 1
        if order == p - 1:
            return g
    raise ValueError(f"no primitive root mod {p}")


def teichmuller(a, p, N):
    """The (p-1)-st root of unity = a mod p, by iterating x -> x^p mod p^N."""
    mod = p**N
    x = a % mod
    while True:
        y = pow(x, p, mod)
        if y == x:
            return x
        x = y


def eval_untwisted(grid, p, d, m, e, N):
    """Value at the character (d, m, e, r = 0) as power-basis integers mod p^N.

    sum over the grid of c[a][r'] * omega(g)^(a d) * zeta_{p^m}^(e r'),
    with omega the Teichmueller character and g the smallest primitive root.
    """
    mod = p**N
    w = teichmuller(primitive_root(p), p, N)
    pm = p**m
    poly = [0] * pm
    for a, row in enumerate(grid):
        weight = pow(w, (a * d) % (p - 1), mod)
        for r, c in enumerate(row):
            if c:
                poly[(e * r) % pm] += c * weight
    return [c % mod for c in reduce_mod_phi(poly, p, m)]


def check_eval(out, grid, p, d, m, e, N):
    """Compare an `iwa eval` output vector of triples with eval_untwisted."""
    want = eval_untwisted(grid, p, d, m, e, N)
    if len(out) != len(want):
        raise CheckFailed(f"eval at (d={d}, m={m}, e={e}) has {len(out)} coefficients")
    for i, (t, w) in enumerate(zip(out, want)):
        prec = abs_prec(t)
        prec = N if prec is None else min(prec, N)
        if not congruent(value(t, p), w, p, prec):
            raise CheckFailed(
                f"eval at (d={d}, m={m}, e={e}) wrong at zeta^{i} modulo p^{prec}"
            )


# -- half-log zeros ----------------------------------------------------------------


def character_grid(p, n, k):
    """Every (d, m, e, r) at level n with twists 0 <= r <= k - 2."""
    out = []
    for r in range(k - 1):
        for d in range(p - 1):
            for m in range(n):
                es = [1] if m == 0 else [e for e in range(1, p**m) if e % p]
                out.extend((d, m, e, r) for e in es)
    return out


def parity_law(p, n, k, plus):
    """Zeros of the signed half-log: gamma-order p^m, m >= 1 of the sign's parity."""
    want = 0 if plus else 1
    return {c for c in character_grid(p, n, k) if c[1] >= 1 and c[1] % 2 == want}


def check_zeros(report, p, n, k, plus):
    want = parity_law(p, n, k, plus)
    for key in ("computed", "predicted"):
        got = {(c["d"], c["m"], c["e"], c["r"]) for c in report[key]}
        if got != want or len(report[key]) != len(want):
            raise CheckFailed(
                f"halflog-zeros {key} locus has {len(got)} characters, "
                f"the parity law {len(want)}"
            )
    if report["match"] is not True:
        raise CheckFailed("halflog-zeros reports a mismatch")


# -- admissibility rows ------------------------------------------------------------


def admissible_rows(p, n, k):
    """(s, d, e, r) of every row check_admissible must report."""
    out = set()
    for s in range(1, n + 1):
        m = s - 1
        es = [1] if m == 0 else [e for e in range(1, p**m) if e % p]
        ds = range(1, p - 1) if s == 1 else range(p - 1)
        for d in ds:
            for e in es:
                for r in range(k - 1):
                    out.add((s, d, e, r))
    return out


def check_admissible_report(report, p, n, k):
    want = admissible_rows(p, n, k)
    got = {(r["s"], r["d"], r["e"], r["r"]) for r in report["rows"]}
    if got != want or len(report["rows"]) != len(want):
        raise CheckFailed(f"admissible report has {len(got)} rows, want {len(want)}")
    for r in report["rows"]:
        if r["enforced"] != (r["s"] >= 2):
            raise CheckFailed(f"row s={r['s']} has the wrong enforcement flag")
        if r["enforced"] and not r["ok"]:
            raise CheckFailed(f"enforced row {r} fails on a composed pair")
    if report["passed"] is not True:
        raise CheckFailed("admissible report did not pass")


# -- qpn closed forms ----------------------------------------------------------------


def graded_dim(p, i):
    """Dimensions of the graded pieces: 1, p - 2, then p^(i-2) (p-1)^2."""
    if i == 0:
        return 1
    if i == 1:
        return p - 2
    return p ** (i - 2) * (p - 1) ** 2


def signed_dim(p, n, plus):
    """Constants plus the graded pieces of the sign's parity up to level n."""
    start = 2 if plus else 1
    return 1 + sum(graded_dim(p, i) for i in range(start, n + 1, 2))


def field_degree(p, n):
    return (p - 1) * p ** (n - 1)


def check_rank(got, want, what):
    if got != want:
        raise CheckFailed(f"{what}: rank {got}, closed form {want}")


def check_signed_pair(plus_rank, minus_rank, p, n):
    """Qplus + Qminus = phi(p^n) + 1: the two spaces share only the constants."""
    if plus_rank + minus_rank != field_degree(p, n) + 1:
        raise CheckFailed(
            f"Qplus + Qminus = {plus_rank + minus_rank} at p={p} n={n}, "
            f"want {field_degree(p, n) + 1}"
        )


def graded_generator(p, n, i):
    """Coordinates of 1, zeta_p + 1/(p-1), zeta_{p^i} in the level-n power basis."""
    v = [Fraction(0)] * field_degree(p, n)
    if i == 0:
        v[0] = Fraction(1)
    else:
        v[p ** (n - i)] = Fraction(1)
        if i == 1:
            v[0] = Fraction(1, p - 1)
    return v


def span_law(p, support):
    """Orbit rank of a combination of graded generators with this support."""
    return sum(graded_dim(p, i) for i in support)


# -- self-test -------------------------------------------------------------------------


def _rejects(fn, *args):
    try:
        fn(*args)
    except CheckFailed:
        return True
    return False


def self_test():
    """Hand-checked p = 3, n = 2 cases; returns a list of failure messages."""
    bad = []

    def expect(cond, what):
        if not cond:
            bad.append(what)

    p, n, N = 3, 2, 40
    # gamma-direction Z[x]/(x^3 - 1): a row is divisible by 1 + x + x^2
    # exactly when its three coefficients agree
    expect(rows_divisible([[5, 5, 5], [2, 2, 2]], p, 1, N), "equal rows divide")
    expect(not rows_divisible([[1, 2, 3], [0, 0, 0]], p, 1, N), "1+2x+3x^2 does not")
    expect(not rows_divisible([[0, 3, 3], [0, 0, 0]], p, 1, N), "3x+3x^2 does not")
    expect(reduce_mod_phi([0, 3, 3], p, 1) == [-3, 0], "3x+3x^2 = -3 mod Phi_3")
    check_divisible(True, [[5, 5, 5], [2, 2, 2]], p, 1, N)
    expect(_rejects(check_divisible, True, [[1, 2, 3], [0, 0, 0]], p, 1, N),
           "a wrong divisibility answer is rejected")

    # (1, 2) * phi(1) = (1 + x + x^2, 2 + 2x + 2x^2); so is (1/3)(1+x+x^2)
    one, two = (0, 1, N), (0, 2, N)
    z = (None, 0, N)
    third = (-1, 1, N)
    f = [[1, 1, 1], [2, 2, 2]]
    check_quotient([[one, z, z], [two, z, z]], f, p, n, 1)
    check_quotient([[third, third, third], [two, z, z]], f, p, n, 1)
    expect(_rejects(check_quotient, [[two, z, z], [two, z, z]], f, p, n, 1),
           "a wrong quotient is rejected")

    # (1 + 3 gamma)^-1 = (1 - 3 gamma + 9 gamma^2) / 28, since gamma^3 = 1
    inv28 = pow(28, -1, p**N)
    u = [[1, 3, 0], [0, 0, 0]]
    v = [[(0, inv28, N), (1, p**N - inv28, N), (2, inv28, N)], [z, z, z]]
    check_unit_inverse(v, u, p)
    v_bad = [[(0, inv28, N), (1, inv28, N), (2, inv28, N)], [z, z, z]]
    expect(_rejects(check_unit_inverse, v_bad, u, p), "a wrong inverse is rejected")

    # omega(2) = -1 at p = 3; at p = 5, omega(2)^2 = -1
    expect(teichmuller(2, 3, 5) == 3**5 - 1, "omega(2) = -1 mod 3^5")
    w5 = teichmuller(2, 5, 10)
    expect(w5 % 5 == 2 and pow(w5, 2, 5**10) == 5**10 - 1, "omega(2)^2 = -1 mod 5^10")

    # f = 1 + 2 gamma + delta gamma^2 at chi = (d=1, m=1, e=1):
    # 1 + 2 zeta - zeta^2 = 2 + 3 zeta
    g = [[1, 2, 0], [0, 0, 1]]
    mod = p**N
    expect(eval_untwisted(g, p, 1, 1, 1, N) == [2, 3], "eval (1,1,1) = 2 + 3 zeta")
    expect(eval_untwisted(g, p, 0, 0, 1, N) == [4], "eval (0,0,1) = 4")
    expect(eval_untwisted(g, p, 1, 0, 1, N) == [2], "eval (1,0,1) = 2")
    expect(eval_untwisted(g, p, 0, 1, 2, N) == [mod - 1, mod - 1],
           "eval (0,1,2) = 1 + 2 zeta^2 + zeta^4 = -1 - zeta")
    check_eval([(0, 2, N), (1, 1, N)], g, p, 1, 1, 1, N)
    expect(_rejects(check_eval, [(0, 2, N), (0, 1, N)], g, p, 1, 1, 1, N),
           "a wrong character value is rejected")

    # p = 3, n = 2, k = 2: plus has no factor below n, minus vanishes at m = 1
    expect(parity_law(p, n, 2, True) == set(), "plus half-log has no zeros")
    expect(parity_law(p, n, 2, False) == {(0, 1, 1, 0), (0, 1, 2, 0), (1, 1, 1, 0), (1, 1, 2, 0)},
           "minus half-log vanishes at the four order-3 characters")
    rep = {"computed": [], "predicted": [], "match": True}
    check_zeros(rep, p, n, 2, True)
    expect(_rejects(check_zeros, rep, p, n, 2, False), "a missing zero is rejected")

    # rows: s = 1 has d = 1 only, s = 2 has d in {0, 1} and e in {1, 2}
    expect(admissible_rows(p, n, 2) == {(1, 1, 1, 0), (2, 0, 1, 0), (2, 0, 2, 0),
                                         (2, 1, 1, 0), (2, 1, 2, 0)}, "admissible rows")

    # Q(zeta_9): graded pieces 1, 1, 4; Qplus = 1 + 4, Qminus = 1 + 1
    expect([graded_dim(p, i) for i in range(3)] == [1, 1, 4], "graded dims 1, 1, 4")
    expect(signed_dim(p, n, True) == 5 and signed_dim(p, n, False) == 2, "Q+ = 5, Q- = 2")
    check_signed_pair(5, 2, p, n)
    expect(_rejects(check_signed_pair, 5, 3, p, n), "Q+ + Q- != 7 is rejected")
    expect(graded_generator(p, n, 1)[3] == 1 and graded_generator(p, n, 1)[0] == Fraction(1, 2),
           "zeta_3 + 1/2 sits at zeta_9^3")
    expect(span_law(p, (0, 2)) == 5, "orbit of 1 + zeta_9 spans 5 dimensions")
    return bad
