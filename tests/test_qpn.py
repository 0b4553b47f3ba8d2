"""Exact-rational cyclotomic lab: traces, orbit spans, signed subspaces."""

from fractions import Fraction

import pytest

from iwa.errors import BadIndex, InvalidParameter
from iwa.halflogs import MINUS, PLUS
from iwa.qpn import (
    CycRationalElem,
    SubspaceBasis,
    _tower_step_generator,
    dim_graded,
    dim_minus_formula,
    dim_plus_formula,
    galois_orbit,
    galois_span_dim,
    kernel_basis,
    pi_element,
    plus_minus_space,
    r_space,
    rank_of_vectors,
    spaces_equal,
    trace,
    u_space_dim,
)
from iwa.cyclotomic import phi_degree
from iwa.rng import SplitMix64


def test_root_reduction():
    p, n = 3, 2
    assert CycRationalElem.root(p, n, p**n) == CycRationalElem.one(p, n)
    # the defining relation: sum of zeta^(i p^(n-1)) over i < p is zero
    acc = CycRationalElem.zero(p, n)
    for i in range(p):
        acc = acc + CycRationalElem.root(p, n, i * p ** (n - 1))
    assert acc.is_zero()


def test_integer_numerators_over_one_denominator():
    x = CycRationalElem(3, 1, [Fraction(2, 4), 3])
    assert (x.nums, x.den) == ((1, 6), 2)
    assert x.coeffs == (Fraction(1, 2), Fraction(3))
    # lowest terms make equal elements equal integers
    y = CycRationalElem(3, 1, [Fraction(3, 6), Fraction(6, 2)])
    assert y == x and (y.nums, y.den) == (x.nums, x.den)
    assert (x - y).nums == (0, 0) and (x - y).den == 1


def test_mul_matches_exponent_addition():
    p, n = 3, 2
    for a in range(9):
        for b in range(9):
            lhs = CycRationalElem.root(p, n, a) * CycRationalElem.root(p, n, b)
            assert lhs == CycRationalElem.root(p, n, a + b)


def test_ring_laws_sampled():
    rng = SplitMix64(31337)
    p, n = 3, 2
    dim = phi_degree(p, n)

    def rand_elem():
        return CycRationalElem(
            p, n,
            [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(dim)],
        )

    for _ in range(10):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x


def test_sigma_is_a_ring_hom_and_a_group_action():
    rng = SplitMix64(4)
    p, n = 3, 3
    dim = phi_degree(p, n)
    x = CycRationalElem(p, n, [Fraction(rng.randrange(-3, 4)) for _ in range(dim)])
    y = CycRationalElem(p, n, [Fraction(rng.randrange(-3, 4)) for _ in range(dim)])
    assert (x * y).sigma(5) == x.sigma(5) * y.sigma(5)
    assert x.sigma(1) == x
    assert x.sigma(5).sigma(7) == x.sigma(35)
    with pytest.raises(InvalidParameter):
        x.sigma(6)


def test_embed_project_roundtrip():
    p = 3
    x = CycRationalElem.root(p, 1, 1) + CycRationalElem.rational(p, 1, 2)
    up = x.embed(3)
    assert up.coeffs[::9] == x.coeffs
    assert not any(c for i, c in enumerate(up.coeffs) if i % 9)
    with pytest.raises(BadIndex):
        x.embed(0)


def test_trace_reference_values():
    p = 3
    assert trace(CycRationalElem.root(p, 1, 1), 0) == CycRationalElem.rational(
        p, 0, -1
    )
    # the plain root has zero relative trace only from level 2 up; at level 1
    # the sum of primitive roots is -1, which pi_1's constant shift repairs
    for n in (2, 3):
        assert trace(CycRationalElem.root(p, n, 1), n - 1).is_zero()
    # on a lower-level element the trace is multiplication by the index
    y = CycRationalElem.root(p, 1, 1).embed(3)
    assert trace(y, 1) == CycRationalElem.root(p, 1, 1).scale(p**2)
    with pytest.raises(BadIndex):
        trace(y, 4)


def test_trace_transitivity():
    p, n = 3, 3
    rng = SplitMix64(99)
    dim = phi_degree(p, n)
    x = CycRationalElem(p, n, [Fraction(rng.randrange(-5, 6)) for _ in range(dim)])
    assert trace(trace(x, 2), 0) == trace(x, 0)
    assert trace(trace(x, 1), 0) == trace(x, 0)


def galois_trace(x, m):
    """The trace as the sum of the conjugates sigma_a, a = 1 mod p^m.

    The sum lies in the level-m subfield: its coefficients vanish off the
    exponents divisible by p^(n-m), and those read off level m.
    """
    p, n = x.p, x.n
    acc = CycRationalElem.zero(p, n)
    for a in range(1, p**n, p**m):
        if a % p:
            acc = acc + x.sigma(a)
    step = p ** (n - m)
    assert not any(c for i, c in enumerate(acc.coeffs) if i % step)
    return CycRationalElem(p, m, acc.coeffs[::step][:phi_degree(p, m)])


def test_trace_matches_the_galois_sum():
    rng = SplitMix64(17)
    for p, top in [(3, 4), (5, 3), (7, 2)]:
        for n in range(1, top + 1):
            dim = phi_degree(p, n)
            for _ in range(3):
                x = CycRationalElem(
                    p, n, [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(dim)]
                )
                for m in range(n + 1):
                    assert trace(x, m) == galois_trace(x, m), (p, n, m)


def test_pi_elements():
    p = 3
    assert pi_element(p, 2, 0) == CycRationalElem.one(p, 2)
    pi1 = pi_element(p, 1, 1)
    assert pi1 == CycRationalElem.root(p, 1, 1) + CycRationalElem.rational(
        p, 1, Fraction(1, 2)
    )
    for n in (1, 2, 3):
        assert trace(pi_element(p, n, n), n - 1).is_zero()
    with pytest.raises(BadIndex):
        pi_element(p, 2, 3)
    with pytest.raises(BadIndex):
        pi_element(p, 2, -1)


def test_graded_dimensions_sum_to_field_degree():
    for (p, n) in [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3)]:
        assert sum(dim_graded(p, i) for i in range(n + 1)) == phi_degree(p, n)


def test_orbit_dims_match_graded_pieces():
    for (p, n) in [(3, 3), (5, 2)]:
        for i in range(n + 1):
            assert galois_span_dim(pi_element(p, n, i)) == dim_graded(p, i)


def test_orbit_rank_law_on_sparse_combinations():
    rng = SplitMix64(2718)
    p, n = 3, 3
    for _ in range(25):
        coords = [Fraction(rng.randrange(-2, 3)) for _ in range(n + 1)]
        if not any(coords):
            coords[rng.randbelow(n + 1)] = Fraction(1)
        x = CycRationalElem.zero(p, n)
        for i, c in enumerate(coords):
            if c:
                x = x + pi_element(p, n, i).scale(c)
        want = sum(dim_graded(p, i) for i, c in enumerate(coords) if c)
        assert galois_span_dim(x) == want


def orbit_oracle_elements(p, n):
    """(level, x) pairs, one per level: a rational constant, pi_1 with its
    1/(p-1), then pi_l plus a multiple of pi_1."""
    yield 0, pi_element(p, n, 0).scale(Fraction(-3, 7))
    yield 1, pi_element(p, n, 1)
    for level in range(2, n + 1):
        yield level, pi_element(p, n, level) + pi_element(p, n, 1).scale(Fraction(2, 3))


@pytest.mark.parametrize("p, top", [(3, 4), (5, 4), (7, 4)])
def test_galois_orbit_runs_over_the_units_below_its_level(p, top):
    for n in range(1, top + 1):
        for level, x in orbit_oracle_elements(p, n):
            orbit = galois_orbit(x)
            assert len(orbit) == phi_degree(p, level), (p, n, level)
            units = [a for a in range(1, max(p**level, 2)) if a % p]
            assert orbit == [x.sigma(a) for a in units]
            # the same span as every conjugate, one per unit below p^n
            every = [x.sigma(a) for a in range(1, p**n) if a % p]
            rank = rank_of_vectors([y.nums for y in orbit])
            assert rank_of_vectors([y.nums for y in orbit + every]) == rank


def test_pi_orbits_are_independent():
    p, n = 3, 3
    rows = []
    for i in range(n + 1):
        rows.extend(y.coeffs for y in galois_orbit(pi_element(p, n, i)))
    total = rank_of_vectors(rows)
    assert total == sum(dim_graded(p, i) for i in range(n + 1))


def test_plus_minus_dimension_table():
    table = {
        (3, 2): (5, 2),
        (3, 3): (5, 14),
        (3, 4): (41, 14),
        (5, 2): (17, 4),
    }
    for (p, n), (dplus, dminus) in table.items():
        qp = plus_minus_space(p, n, PLUS)
        qm = plus_minus_space(p, n, MINUS)
        assert qp.rank == dplus == dim_plus_formula(p, n)
        assert qm.rank == dminus == dim_minus_formula(p, n)
        # complementarity: dims add to the field degree plus one and the
        # intersection is the constants
        assert qp.rank + qm.rank == phi_degree(p, n) + 1
        union = rank_of_vectors(
            [v.coeffs for v in qp.vectors] + [v.coeffs for v in qm.vectors]
        )
        assert union == phi_degree(p, n)


@pytest.mark.parametrize("p, top", [(3, 4), (5, 4), (7, 3)])
def test_plus_minus_vectors_meet_their_trace_conditions(p, top):
    for n in range(1, top + 1):
        for sign, formula in ((PLUS, dim_plus_formula), (MINUS, dim_minus_formula)):
            space = plus_minus_space(p, n, sign)
            assert space.rank == formula(p, n), (p, n, sign)
            for m in range(0 if sign == PLUS else 1, n, 2):
                c = _tower_step_generator(p, m)
                for v in space.vectors:
                    t = trace(v, m + 1)
                    assert t.sigma(c) == t, (p, n, sign, m)


def test_r_space_sum_and_intersection():
    for (p, n) in [(3, 2), (3, 3), (3, 4)]:
        rp = r_space(p, n, PLUS)
        rm = r_space(p, n, MINUS)
        union = rank_of_vectors(
            [v.coeffs for v in rp.vectors] + [v.coeffs for v in rm.vectors]
        )
        assert union == phi_degree(p, n)
        assert rp.rank + rm.rank == phi_degree(p, n) + 1


def test_trace_and_orbit_definitions_coincide():
    for (p, n) in [(3, 1), (3, 2), (3, 3), (5, 2)]:
        for sign in (PLUS, MINUS):
            assert spaces_equal(
                plus_minus_space(p, n, sign), r_space(p, n, sign)
            )


def test_u_space_dims():
    assert u_space_dim(3, 2) == 5
    assert u_space_dim(3, 3) == 5
    assert u_space_dim(3, 4) == 41
    with pytest.raises(BadIndex):
        u_space_dim(3, 1)


def test_subspace_basis_validation():
    p, n = 3, 1
    x = CycRationalElem.root(p, n, 1)
    with pytest.raises(InvalidParameter):
        SubspaceBasis((x, x), 2, "dependent")
    with pytest.raises(InvalidParameter):
        SubspaceBasis((x,), 2, "wrong rank")


def test_kernel_basis_shapes():
    rows = [(Fraction(1), Fraction(1), Fraction(0))]
    ker = kernel_basis(rows, 3)
    assert len(ker) == 2
    for v in ker:
        assert v[0] + v[1] == 0
    assert len(kernel_basis([], 3)) == 3
