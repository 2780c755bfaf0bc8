"""Exact linear algebra: echelon bases, solving, integer lattices."""

from fractions import Fraction
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from panache.linalg import (IntLattice, Mat, Subspace, format_rat,
                            hermite_normal_form, intersect_subspaces,
                            kernel_basis, lattice_member, parse_rat, rref_basis,
                            smith_normal_form, solve_linear)

from oracles import lattice_solve, solve_mod2


def test_parse_and_format_rationals():
    assert parse_rat("3/6") == Fraction(1, 2)
    assert parse_rat("-4/2") == Fraction(-2)
    assert format_rat(Fraction(-2, 4)) == "-1/2"
    assert format_rat(Fraction(5)) == "5"
    with pytest.raises(ValueError):
        parse_rat("1/0")


def test_rref_empty_and_dependent():
    empty = rref_basis([], ambient_dim=3)
    assert empty.dim == 0 and empty.ambient_dim == 3
    line = rref_basis([[1, 1], [2, 2]])
    assert line.dim == 1
    assert line.basis == ((Fraction(1), Fraction(1)),)


def test_rref_hand_example():
    s = rref_basis([[1, 0, 1], [0, 1, 1], [1, 1, 2]])
    assert s.dim == 2
    assert s.contains([1, 1, 2])
    assert not s.contains([0, 0, 1])


rational = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(rational, min_size=3, max_size=3), min_size=1, max_size=5))
def test_rref_is_a_projection(rows):
    once = rref_basis(rows, 3)
    twice = rref_basis(list(once.basis), 3) if once.dim else once
    assert once == twice


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(rational, min_size=4, max_size=4), min_size=1, max_size=4),
       st.lists(st.lists(rational, min_size=4, max_size=4), min_size=1, max_size=4))
def test_intersection_dimension_formula(rows_a, rows_b):
    a = rref_basis(rows_a, 4)
    b = rref_basis(rows_b, 4)
    meet = intersect_subspaces(a, b)
    join = a.add(b)
    assert meet.dim + join.dim == a.dim + b.dim
    for row in meet.basis:
        assert a.contains(list(row)) and b.contains(list(row))


def test_intersection_examples():
    whole = Subspace.full(3)
    b = rref_basis([[1, 2, 3]], 3)
    assert intersect_subspaces(whole, b) == b
    l1 = rref_basis([[1, 0]], 2)
    l2 = rref_basis([[1, 1]], 2)
    assert intersect_subspaces(l1, l2).dim == 0
    meet = intersect_subspaces(rref_basis([[1, 0, 0], [0, 1, 0]]),
                               rref_basis([[0, 1, 0], [0, 0, 1]]))
    assert meet.basis == ((Fraction(0), Fraction(1), Fraction(0)),)


def test_solve_identity_and_infeasible():
    sol = solve_linear(Mat.identity(3), [1, 2, 3])
    assert sol.feasible and sol.particular == [1, 2, 3] and sol.kernel.dim == 0
    bad = solve_linear(Mat.zeros(2, 2), [1, 0])
    assert not bad.feasible
    assert bad.certificate is not None


def test_solve_dependent_system():
    a = Mat.from_rows([[1, 1], [2, 2]])
    sol = solve_linear(a, [1, 2])
    assert sol.feasible
    assert sol.particular == [1, 0]
    assert sol.kernel.dim == 1
    assert sol.kernel.contains([1, -1])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(rational, min_size=3, max_size=3), min_size=1, max_size=4),
       st.lists(rational, min_size=1, max_size=4))
def test_solve_matches_rank_criterion(rows, b):
    b = b[:len(rows)] + [Fraction(0)] * (len(rows) - len(b))
    a = Mat.from_rows(rows)
    sol = solve_linear(a, b)
    aug = Mat.from_rows([row + [bb] for row, bb in zip(rows, b)])
    # infeasible exactly when the augmented rank grows
    assert sol.feasible == (aug.rank() == a.rank())
    if sol.feasible:
        assert a.apply(sol.particular) == list(b)
    else:
        combo = [Fraction(0)] * a.cols
        acc = Fraction(0)
        for y, row, bb in zip(sol.certificate, rows, b):
            combo = [c + y * x for c, x in zip(combo, row)]
            acc += y * bb
        assert all(x == 0 for x in combo) and acc != 0


def test_kernel_basis():
    a = Mat.from_rows([[1, 1, 0], [0, 0, 1]])
    k = kernel_basis(a)
    assert len(k) == 1
    assert a.apply(k[0]) == [0, 0]


def test_lattice_membership_examples():
    l1 = IntLattice.from_rows([[2]], 1)
    assert lattice_member(l1, [4])
    assert not lattice_member(l1, [3])
    l2 = IntLattice.from_rows([[2, 0], [0, 3]], 2)
    assert lattice_member(l2, [2, 3])
    assert not lattice_member(l2, [1, 0])


def test_lattice_member_matches_independent_oracles():
    rng = random.Random(7)
    for _ in range(60):
        rank = rng.randint(1, 3)
        n = rng.randint(1, 3)
        gens = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rank)]
        lat = IntLattice.from_rows(gens, n)
        v = [rng.randint(-4, 4) for _ in range(n)]
        # complete independent oracle: adjoining a member must not change the
        # invariant factors, adjoining a non-member must
        same_lattice = smith_normal_form(gens) == smith_normal_form(gens + [v])
        assert lat.member(v) == same_lattice
        # a brute-force witness with small coefficients certifies membership
        brute = any(
            [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(n)] == v
            for coeffs in itertools.product(range(-5, 6), repeat=rank))
        if brute:
            assert lat.member(v)
        # and membership always has an exact coefficient witness
        if lat.member(v):
            coeffs = lattice_solve(gens, v)
            assert coeffs is not None
            rebuilt = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(n)]
            assert rebuilt == v


def test_lattice_solve_recovers_coefficients():
    gens = [[2, 1, 0], [0, 3, 1]]
    target = [4, 5, 1]  # 2*g0 + 1*g1
    coeffs = lattice_solve(gens, target)
    assert coeffs is not None
    rebuilt = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(3)]
    assert rebuilt == target
    assert lattice_solve(gens, [1, 0, 0]) is None


def test_hermite_form_properties():
    h = hermite_normal_form([[2, 4], [1, 3]])
    assert h == [[1, 1], [0, 2]]
    # same row span
    lat_a = IntLattice.from_rows([[2, 4], [1, 3]], 2)
    lat_b = IntLattice.from_rows(h, 2)
    for v in ([2, 4], [1, 3], [1, 1], [0, 2]):
        assert lat_a.member(v) and lat_b.member(v)


def test_smith_normal_form_invariant_factors():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[2, 0], [0, 4]]) == [2, 4]
    assert smith_normal_form([[0, 0], [0, 0]]) == []


def test_solve_mod2():
    rows = [[1, 0, 1], [0, 1, 1]]
    x = solve_mod2(rows, [1, 1, 0])
    assert x is not None
    combo = [0, 0, 0]
    for xi, row in zip(x, rows):
        if xi:
            combo = [(a + b) & 1 for a, b in zip(combo, row)]
    assert combo == [1, 1, 0]
    assert solve_mod2([[1, 0, 1]], [0, 1, 0]) is None


def test_matrix_inverse_and_det():
    m = Mat.from_rows([[1, 2], [3, 4]])
    assert m.det() == -2
    inv = m.inverse()
    assert m.matmul(inv) == Mat.identity(2)
    with pytest.raises(ValueError):
        Mat.from_rows([[1, 1], [1, 1]]).inverse()
