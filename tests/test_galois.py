"""Kernel Lie algebras of the restriction maps."""

import pytest

from panache.galois import (galois_dim, geq_block, gr_leading_span, hom_block,
                            relative_kernel_lie, strictly_lower_block, u_geq_of,
                            u_of, u_p_of)
from panache.linalg import Mat, rref_basis
from panache.objects import (RepObject, direct_sum, gr_object, random_object,
                             unit_object, weight_filtration, weight_quotient)
from panache.presentations import free_graded_lie, tate_convention

from oracles import coordinate_subspace


def tate_free(degrees, bound, names=None):
    rank, weight = tate_convention()
    return free_graded_lie(rank, weight, degrees, bound, names=names)


@pytest.fixture(scope="module")
def kummer():
    p = tate_free([(1,)], -2, names=["k"])
    return RepObject(p, ("e1", "e0"), ((1,), (0,)),
                     {0: Mat.from_rows([[0, 1], [0, 0]])})


def test_u_of_zero_action():
    p = tate_free([(1,)], -2)
    m = RepObject(p, ("a", "b"), ((1,), (0,)), {})
    assert u_of(m).dim == 0


def test_u_of_kummer(kummer):
    assert u_of(kummer).dim == 1


def test_u_three_step_shape():
    """Three one-dimensional pieces with all three blocks filled."""
    p = tate_free([(1,), (1,)], -4, names=["x", "y"])
    m = RepObject(p, ("c2", "c1", "c0"), ((2,), (1,), (0,)), {
        0: Mat.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
        1: Mat.from_rows([[0, 1, 0], [0, 0, -1], [0, 0, 0]]),
    })
    # extend to the bracket generator
    from panache.objects import _extend_free_actions
    _extend_free_actions(m)
    assert m.validate() == []
    u = u_of(m)
    assert u.dim == 3
    assert u.space == coordinate_subspace(strictly_lower_block(m), m.dim ** 2)
    assert u.check_bracket_closed()


def test_relative_kernel_identities(kummer):
    assert relative_kernel_lie(kummer, kummer).dim == 0
    assert relative_kernel_lie(kummer, gr_object(kummer)).space == u_of(kummer).space


def test_relative_kernel_two_step_equals_block_kernel():
    p = tate_free([(1,), (1,)], -4, names=["x", "y"])
    for seed in range(10):
        m = random_object(p, [0, 1, 1, 2], 0.7, seed=seed)
        for cut in m.weights():
            two_step = direct_sum(weight_filtration(m, cut).source,
                                  weight_quotient(m, cut).target)
            assert u_p_of(m, cut).space == relative_kernel_lie(m, two_step).space


def test_relative_kernel_sees_torus_directions():
    """Restricting to an object with fewer characters frees diagonal
    directions of the torus."""
    p = tate_free([(1,)], -2, names=["k"])
    m = RepObject(p, ("e1", "e0"), ((1,), (0,)), {})
    sub = unit_object(p)
    rel = relative_kernel_lie(m, sub)
    # the torus direction acting by the character on e1 kills the unit object
    assert rel.dim == 1
    mats = rel.matrices()
    assert mats[0].data[0][0] != 0 and mats[0].data[1][1] == 0


def test_u_p_edges(kummer):
    assert u_p_of(kummer, 0).dim == 0
    assert u_p_of(kummer, -2).dim == 1
    assert u_p_of(kummer, -2).space == coordinate_subspace(hom_block(kummer, -2),
                                                            kummer.dim ** 2)


def test_u_geq_counts_blocks():
    p = tate_free([(1,), (1,)], -4, names=["x", "y"])
    m = random_object(p, [0, 1, 2], 0.95, seed=5)
    assert u_geq_of(m, -4).dim >= 2
    block = coordinate_subspace(geq_block(m, -4), m.dim ** 2)
    assert block.contains_subspace(u_geq_of(m, -4).space)


def test_galois_dim_examples(kummer):
    p = kummer.presentation
    assert galois_dim(unit_object(p)) == 0
    assert galois_dim(kummer) == 2


def test_gr_leading_span_homogeneous_fixed():
    p = tate_free([(1,), (1,)], -4, names=["x", "y"])
    m = random_object(p, [0, 1, 2], 0.9, seed=2)
    u = u_of(m)
    assert gr_leading_span(m, u) == u.space  # actions are weight-homogeneous


def test_gr_leading_span_mixed_weights():
    """A genuinely filtered plane splits into one homogeneous line per level,
    and a single mixed vector only contributes its top component."""
    p = tate_free([(1,), (1,)], -4, names=["x", "y"])
    m = RepObject(p, ("c2", "c1", "c0"), ((2,), (1,), (0,)), {})
    d = m.dim
    high = [0] * (d * d)
    high[1 * d + 2] = 1         # weight -2 entry (1 <- 0)
    low = [0] * (d * d)
    low[0 * d + 2] = 1          # weight -4 entry (2 <- 0)
    mixed = [a + b for a, b in zip(high, low)]
    plane = rref_basis([mixed, low], d * d)
    gr = gr_leading_span(m, plane)
    assert gr.dim == 2
    assert gr.contains(high) and gr.contains(low)
    line = rref_basis([mixed], d * d)
    gr_line = gr_leading_span(m, line)
    assert gr_line.dim == 1
    assert gr_line.contains(high) and not gr_line.contains(low)


def test_u_contained_in_lower_block_everywhere():
    p = free_graded_lie(1, (-1,), [(1,), (2,)], -3)
    for seed in range(8):
        m = random_object(p, [0, 1, 3], 0.8, seed=seed)
        block = coordinate_subspace(strictly_lower_block(m), m.dim ** 2)
        assert block.contains_subspace(u_of(m).space)


def test_u_geq_matches_relative_kernel_on_corpus():
    """The below-a-cut kernel block agrees with the relative kernel against
    the q-th filtration step plus the associated graded."""
    from panache.corpus import corpus
    from panache.objects import direct_sum
    for inst in corpus(20, 123):
        m = inst.m
        for q in m.weights():
            lhs = u_geq_of(m, q).space
            two = direct_sum(weight_filtration(m, q).source, gr_object(m))
            assert lhs == relative_kernel_lie(m, two).space
