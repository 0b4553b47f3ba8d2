"""Verification suites: every law the library exposes, as one runnable bundle.

Each suite returns a JSON-able report: a list of checks, each stating in
plain words what was verified, with counts and a passed flag.  Reports carry
no timestamps or environment data, so a (suite, seed) pair produces
bit-identical output across runs.
"""

from fractions import Fraction

from .cyclotomic import CharacterSpec, CyclotomicScalar, gauss_sum
from .errors import IwaError
from .groupring import (
    GroupRingElem,
    crt_decompose,
    divide_exact,
    divisible_by_phi,
    invert_unit,
    phi,
    random_element,
    slot_is_zero,
    twist_gamma,
)
from .halflogs import (
    MINUS,
    PLUS,
    HalfLogParams,
    log_trunc,
    predicted_locus,
    saturated_twist_unit,
    vanishing_locus,
    zero_factor_counts,
)
from .padic import PadicScalar, verify_val_growth
from .plusminus import check_admissible, compose, decompose, make_alpha, _signed
from .qpn import (
    CycRationalElem,
    dim_graded,
    dim_minus_formula,
    dim_plus_formula,
    galois_orbit,
    galois_span_dim,
    pi_element,
    plus_minus_space,
    r_space,
    rank_of_vectors,
    spaces_equal,
    u_space_dim,
)
from .cyclotomic import phi_degree
from .rng import SplitMix64

DEFAULT_SEED = 715517


def _check(statement, passed, **details):
    out = {"statement": statement, "passed": bool(passed)}
    out.update(details)
    return out


def _suite(name, checks, **extra):
    report = {
        "suite": name,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
    report.update(extra)
    return report


# -- divisibility / CRT / units ---------------------------------------------------


def suite_lin(seed: int = DEFAULT_SEED) -> dict:
    N = 40
    combos = [
        (p, n, m)
        for p in (3, 5)
        for n in (2, 3, 4)
        for m in range(1, n)
    ]
    rng = SplitMix64(seed)
    random_agree = 0
    random_total = 0
    built_agree = 0
    built_total = 0
    remul_exact = 0
    remul_total = 0
    for (p, n, m) in combos:
        for _ in range(42):
            f = random_element(p, n, N, rng)
            a = divisible_by_phi(f, m)
            b = slot_is_zero(crt_decompose(f), m)
            random_total += 1
            random_agree += a == b
            if a and b:
                q = divide_exact(f, m)
                remul_total += 1
                remul_exact += q * phi(p, n, m, N) == f
        for _ in range(17):
            g = random_element(p, n, N, rng)
            f = phi(p, n, m, N) * g
            a = divisible_by_phi(f, m)
            b = slot_is_zero(crt_decompose(f), m)
            built_total += 1
            built_agree += a and b
            q = divide_exact(f, m)
            remul_total += 1
            remul_exact += q * phi(p, n, m, N) == f
    checks = [
        _check(
            "divisibility criterion agrees with CRT slot vanishing on random elements",
            random_agree == random_total,
            agreed=random_agree,
            total=random_total,
        ),
        _check(
            "constructed multiples test divisible under both definitions",
            built_agree == built_total,
            agreed=built_agree,
            total=built_total,
        ),
        _check(
            "exact quotients re-multiply to the dividend",
            remul_exact == remul_total,
            exact=remul_exact,
            total=remul_total,
        ),
    ]

    # one-unit inversion at saturated levels
    unit_ok = 0
    unit_total = 0
    for p in (3, 5):
        for n in (2, 3):
            one = GroupRingElem.one(p, n, N)
            for m in (n, n + 1):
                sat0 = saturated_twist_unit(p, n, m, 0, N)
                unit_total += 1
                unit_ok += sat0 == one
                # the coefficient twist leaves the collapsed constant alone
                literal = twist_gamma(phi(p, n, m, N), 1).shift_p(-1)
                unit_total += 1
                unit_ok += literal == one
                for j in (1, 2):
                    x = saturated_twist_unit(p, n, m, j, N)
                    inv = invert_unit(x)
                    diff = x * inv - one
                    mv = diff.min_valuation()
                    unit_total += 1
                    unit_ok += diff.is_zero() or mv >= N - n
    checks.append(
        _check(
            "saturated twisted one-units invert back to 1 within n digits of the cap",
            unit_ok == unit_total,
            ok=unit_ok,
            total=unit_total,
        )
    )
    return _suite("lin", checks, seed=seed, N=N)


# -- valuation growth ------------------------------------------------------------


def suite_padic(seed: int = DEFAULT_SEED) -> dict:
    rng = SplitMix64(seed)
    N = 30
    ok = 0
    total = 0
    for i in range(100):
        p = (3, 5)[i % 2]
        n = 1 + i % 6
        c = 1 + rng.randbelow(3)
        t = 1 + rng.randbelow(p**6)
        if t % p == 0:
            t += 1
        xi = 1 + t * p**c
        x = PadicScalar.from_int(xi, p, N)
        lib = verify_val_growth(x, n)
        # independent big-integer oracle
        y = pow(xi, p**n, p**N) - 1
        v = 0
        while y and y % p == 0:
            y //= p
            v += 1
        total += 1
        ok += lib and v == n + c
    return _suite(
        "padic",
        [
            _check(
                "valuation of x^(p^n) - 1 grows by exactly n for 1-units",
                ok == total,
                ok=ok,
                total=total,
            )
        ],
        seed=seed,
    )


# -- dimension tables and spans ----------------------------------------------------


def suite_dims(seed: int = DEFAULT_SEED) -> dict:
    checks = []
    table_ok = True
    table = {}
    for (p, n) in [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3)]:
        qp = plus_minus_space(p, n, PLUS)
        qm = plus_minus_space(p, n, MINUS)
        fp, fm = dim_plus_formula(p, n), dim_minus_formula(p, n)
        table[f"p={p},n={n}"] = [qp.rank, qm.rank]
        table_ok &= qp.rank == fp and qm.rank == fm
        table_ok &= qp.rank + qm.rank == phi_degree(p, n) + 1
    checks.append(
        _check(
            "signed subspace ranks equal the closed dimension formulas",
            table_ok,
            table=table,
        )
    )

    coincide_ok = True
    for (p, n) in [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3)]:
        for sign in (PLUS, MINUS):
            coincide_ok &= spaces_equal(
                plus_minus_space(p, n, sign), r_space(p, n, sign)
            )
    checks.append(
        _check(
            "trace-condition and orbit-span subspaces coincide",
            coincide_ok,
        )
    )

    u_ok = all(
        u_space_dim(3, n) == r_space(3, n, PLUS).rank for n in (2, 3, 4)
    ) and [u_space_dim(3, n) for n in (2, 3, 4)] == [5, 5, 41]
    checks.append(
        _check(
            "group-algebra constraint count matches the plus span: 5, 5, 41",
            u_ok,
        )
    )

    rng = SplitMix64(seed)
    law_ok = 0
    law_total = 0
    for (p, n, reps) in [(3, 1, 40), (3, 2, 40), (3, 3, 40), (5, 1, 40), (5, 2, 40)]:
        for _ in range(reps):
            coords = [Fraction(rng.randrange(-2, 3)) for _ in range(n + 1)]
            if not any(coords):
                coords[rng.randbelow(n + 1)] = Fraction(1)
            x = CycRationalElem.zero(p, n)
            for i, c in enumerate(coords):
                if c:
                    x = x + pi_element(p, n, i).scale(c)
            want = sum(dim_graded(p, i) for i, c in enumerate(coords) if c)
            law_total += 1
            law_ok += galois_span_dim(x) == want
    checks.append(
        _check(
            "orbit rank of sparse generator combinations obeys the support law",
            law_ok == law_total,
            ok=law_ok,
            total=law_total,
        )
    )

    nb_ok = True
    for n in (1, 2, 3):
        x = CycRationalElem.one(3, n)
        for i in range(1, n + 1):
            x = x + CycRationalElem.root(3, i, 1).embed(n)
        nb_ok &= galois_span_dim(x) == phi_degree(3, n)
    checks.append(
        _check(
            "the summed root element generates a normal basis at p = 3",
            nb_ok,
        )
    )

    deco_ok = True
    for (p, n) in [(3, 3), (5, 2)]:
        rows = []
        for i in range(n + 1):
            rows.extend(y.coeffs for y in galois_orbit(pi_element(p, n, i)))
        deco_ok &= rank_of_vectors(rows) == phi_degree(p, n)
        deco_ok &= sum(dim_graded(p, i) for i in range(n + 1)) == phi_degree(p, n)
    checks.append(
        _check(
            "graded pieces are independent and fill the whole field",
            deco_ok,
        )
    )
    return _suite("dims", checks, seed=seed)


# -- vanishing locus ---------------------------------------------------------------


def suite_vanish(seed: int = DEFAULT_SEED) -> dict:
    N = 20
    locus_ok = True
    simple_ok = True
    scanned = 0
    for k in (2, 3, 4):
        for n in (1, 2, 3, 4, 5):
            for sign in (PLUS, MINUS):
                params = HalfLogParams(p=3, k=k, n=n, sign=sign)
                counts = zero_factor_counts(params, N)
                locus = frozenset(chi for chi, c in counts.items() if c > 0)
                locus_ok &= locus == predicted_locus(params)
                simple_ok &= all(c in (0, 1) for c in counts.values())
                scanned += len(counts)
    return _suite(
        "vanish",
        [
            _check(
                "half-log zero set equals the parity prediction exactly",
                locus_ok,
                characters_scanned=scanned,
            ),
            _check("every zero is simple (exactly one vanishing factor)", simple_ok),
        ],
        seed=seed,
    )


# -- decomposition round trip --------------------------------------------------------


def suite_roundtrip(seed: int = DEFAULT_SEED) -> dict:
    N = 40
    rng = SplitMix64(seed)
    coset_ok = 0
    recompose_ok = 0
    floor_ok = 0
    total = 0
    for k in (2, 3, 4):
        for n in (1, 2, 3, 4):
            p = 3
            alpha = make_alpha(p, k, 1, N)
            params = HalfLogParams(p=p, k=k, n=n, sign=PLUS)
            lp = log_trunc(_signed(params, PLUS), N).to_quad(alpha.s)
            lm = log_trunc(_signed(params, MINUS), N).to_quad(alpha.s)
            for _ in range(9):
                A = random_element(p, n, N, rng).to_quad(alpha.s)
                B = random_element(p, n, N, rng).to_quad(alpha.s)
                pair = compose(A, B, params, alpha)
                dec = decompose(pair, floor=0)
                total += 1
                coset_ok += (lp * dec.Lplus == lp * A) and (
                    lm * dec.Lminus == lm * B
                )
                back = compose(dec.Lplus, dec.Lminus, params, alpha)
                recompose_ok += back.L1 == pair.L1 and back.L2 == pair.L2
                floor_ok += 1  # decompose(floor=0) would have raised otherwise
    checks = [
        _check(
            "decomposition reproduces both inputs after half-log re-multiplication",
            coset_ok == total,
            ok=coset_ok,
            total=total,
        ),
        _check(
            "re-composition returns the original pair exactly",
            recompose_ok == total,
            ok=recompose_ok,
            total=total,
        ),
        _check(
            "components stay above the integrality floor (projector slack only)",
            floor_ok == total,
            ok=floor_ok,
            total=total,
        ),
    ]
    return _suite("roundtrip", checks, seed=seed, N=N)


# -- admissibility ------------------------------------------------------------------


def suite_admissible(seed: int = DEFAULT_SEED) -> dict:
    N = 40
    rng = SplitMix64(seed)
    pair_ok = 0
    pair_total = 0
    informational = True
    for n in (2, 3, 4):
        p, k = 3, 2
        alpha = make_alpha(p, k, 1, N)
        params = HalfLogParams(p=p, k=k, n=n, sign=PLUS)
        for _ in range(5):
            A = random_element(p, n, N, rng).to_quad(alpha.s)
            B = random_element(p, n, N, rng).to_quad(alpha.s)
            rep = check_admissible(compose(A, B, params, alpha))
            pair_total += 1
            pair_ok += rep.passed
            informational &= all(
                r["enforced"] == (r["s"] >= 2) for r in rep.rows
            )
    # the mechanism behind the law: the signed half-logs vanish on opposite
    # parity classes, confirmed factor-exactly on the full character grid
    mech_ok = True
    for sign in (PLUS, MINUS):
        params = HalfLogParams(p=3, k=2, n=4, sign=sign)
        mech_ok &= vanishing_locus(params, 20) == predicted_locus(params)
    checks = [
        _check(
            "composed pairs satisfy the signed interpolation identity at every "
            "enforced conductor index",
            pair_ok == pair_total,
            ok=pair_ok,
            total=pair_total,
        ),
        _check(
            "rows below the enforcement threshold are reported informationally",
            informational,
        ),
        _check(
            "opposite-parity vanishing supplies the identity mechanism",
            mech_ok,
        ),
    ]
    return _suite("admissible", checks, seed=seed, N=N)


# -- Gauss sums ---------------------------------------------------------------------


def suite_gauss(seed: int = DEFAULT_SEED) -> dict:
    N = 24
    ok = 0
    total = 0
    for p in (3, 5):
        for m in (0, 1, 2):
            es = (1,) if m == 0 else tuple(e for e in range(1, p**m) if e % p)
            for d in range(p - 1):
                if m == 0 and d == 0:
                    continue
                for e in es:
                    chi = CharacterSpec(d=d, m=m, e=e, r=0)
                    cm = chi.conductor_exponent()
                    tau = gauss_sum(chi, p, N)
                    taubar = gauss_sum(chi.inverse(p), p, N)
                    sign = -1 if chi.d % 2 else 1
                    want = CyclotomicScalar.from_scalar(
                        PadicScalar.from_int(sign * p**cm, p, N), cm
                    )
                    total += 1
                    ok += tau * taubar == want
    return _suite(
        "gauss",
        [
            _check(
                "a Gauss sum times its inverse character's equals the character "
                "at -1 times the conductor",
                ok == total,
                ok=ok,
                total=total,
            )
        ],
        seed=seed,
    )


SUITES = {
    "lin": suite_lin,
    "padic": suite_padic,
    "dims": suite_dims,
    "vanish": suite_vanish,
    "roundtrip": suite_roundtrip,
    "admissible": suite_admissible,
    "gauss": suite_gauss,
}

SUITE_ORDER = ("lin", "padic", "dims", "vanish", "roundtrip", "admissible", "gauss")


def run_suite(name: str, seed: int = DEFAULT_SEED) -> dict:
    if name == "all":
        reports = [SUITES[k](seed) for k in SUITE_ORDER]
        return {
            "suite": "all",
            "passed": all(r["passed"] for r in reports),
            "suites": reports,
        }
    if name not in SUITES:
        raise IwaError(f"unknown suite: {name}")
    return SUITES[name](seed)
