"""Coordinate blocks of End(M) as index lists, against materialised blocks.

``Subspace.meet_coordinates`` must equal ``intersect_subspaces`` with the
coordinate subspace built as identity rows; ``subquotient``, which reads
character-homogeneity off the RREF rows, must equal the form that intersects
with one identity block per character; the largeness predicates, now
dimension counts, must equal their subspace-equality forms.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (coordinate_subspace, is_large_u_by_subspace, is_large_u_p_by_subspace,
                     subquotient_by_intersection)
from panache.blends import is_large_u, is_large_u_p
from panache.cohomology import e_p_class, total_class, transport_to_target
from panache.corpus import RECIPES, corpus, sample_stable_subspace
from panache.galois import geq_block, hom_block, u_geq_of, u_of, u_p_of
from panache.linalg import ZERO, Subspace, intersect_subspaces, rref_basis
from panache.objects import subquotient


def meet_by_intersection(s, indices):
    return intersect_subspaces(s, coordinate_subspace(indices, s.ambient_dim))


# ---------------------------------------------------------------------------
# meet_coordinates


rational = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def subspace_and_indices(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.lists(st.lists(rational, min_size=n, max_size=n), max_size=n + 1))
    indices = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    return rref_basis(rows, n), sorted(indices)


@settings(max_examples=300, deadline=None)
@given(subspace_and_indices())
@example((Subspace.zero(3), []))
@example((Subspace.full(3), [0, 1, 2]))
@example((rref_basis([[1, 1, 0], [0, 0, 1]], 3), [0, 2]))
def test_meet_coordinates_equals_intersection(case):
    s, indices = case
    n = s.ambient_dim
    for idx in (indices, [], list(range(n))):
        assert s.meet_coordinates(idx) == meet_by_intersection(s, idx)
    assert s.meet_coordinates(list(range(n))) == s
    assert s.meet_coordinates([]) == Subspace.zero(n)


def test_meet_coordinates_on_corpus_blocks():
    """Every u_p, u_geq and gr_leading_span filtration step of the corpus."""
    meets = 0
    for inst in corpus(200, 0):
        m = inst.m
        d = m.dim
        u = u_of(m).space
        for p in m.weights():
            assert u_p_of(m, p).space == meet_by_intersection(u, hom_block(m, p))
            assert u_geq_of(m, p).space == meet_by_intersection(u, geq_block(m, p))
            meets += 2
        coord_weight = [m.weight_of(a) - m.weight_of(b) for a in range(d) for b in range(d)]
        for space in [u] + [u_geq_of(m, q).space for q in m.weights()]:
            for n in sorted(set(coord_weight)):
                step = [k for k, wt in enumerate(coord_weight) if wt <= n]
                assert space.meet_coordinates(step) == meet_by_intersection(space, step)
                meets += 1
    assert meets > 5000, meets


# ---------------------------------------------------------------------------
# subquotient


def assert_same_subquotient(fast, slow):
    for a, b in ((fast.sub, slow.sub), (fast.quotient, slow.quotient)):
        assert (a.labels, a.characters, a.actions) == (b.labels, b.characters, b.actions)
    assert fast.inclusion.matrix == slow.inclusion.matrix
    assert fast.projection.matrix == slow.projection.matrix


def outcome(fn, m, s):
    try:
        return fn(m, s)
    except ValueError as exc:
        return str(exc)


def candidate_subspaces(inst, k, e, avoid):
    """Sampled stable subspaces of the class target, the kernel block, and
    random one-vector spans that may be inhomogeneous or unstable."""
    x = e.target
    spaces = [("kernel", avoid)]
    for j in range(2):
        s = sample_stable_subspace(x, x, seed=inst.seed * 131 + 17 * k + j)
        if s is not None:
            spaces.append(("sampled", s))
    rng = random.Random(inst.seed * 7 + k)
    chars = sorted(x.character_set())
    for support in (range(x.dim), x.char_indices(chars[rng.randrange(len(chars))])):
        v = [ZERO] * x.dim
        for a in support:
            v[a] = rng.randint(-2, 2)
        if any(v):
            spaces.append(("random", rref_basis([v], x.dim)))
    return spaces


def test_subquotient_matches_per_character_intersection():
    sampled = 0
    errors = {}
    recipes = set()
    for inst in corpus(200, 0):
        m = inst.m
        t = total_class(m)
        classes = [(t, transport_to_target(t, u_of(m).space))]
        for p in m.weights()[:-1]:
            e = e_p_class(m, p)
            classes.append((e, transport_to_target(e, u_p_of(m, p).space)))
        for k, (e, avoid) in enumerate(classes):
            if e.target.dim == 0:
                continue
            for kind, s in candidate_subspaces(inst, k, e, avoid):
                fast = outcome(subquotient, e.target, s)
                slow = outcome(subquotient_by_intersection, e.target, s)
                if isinstance(slow, str):
                    assert fast == slow, (inst.recipe, inst.seed, k)
                    reason = slow.split(" under ")[0]
                    errors[reason] = errors.get(reason, 0) + 1
                    continue
                assert_same_subquotient(fast, slow)
                sampled += kind == "sampled"
                recipes.add(inst.recipe)
    assert sampled >= 1000, sampled
    assert recipes == {r.name for r in RECIPES}
    assert set(errors) == {"subspace is not character-homogeneous",
                           "subspace is not stable"}, errors


def test_subquotient_ambient_mismatch_matches():
    m = next(iter(corpus(1, 0))).m
    s = Subspace.zero(m.dim + 1)
    for fn in (subquotient, subquotient_by_intersection):
        with pytest.raises(ValueError, match="ambient dimension mismatch"):
            fn(m, s)


# ---------------------------------------------------------------------------
# largeness as a dimension count


def test_largeness_predicates_match_subspace_equality():
    seen_u, seen_up = set(), set()
    for inst in corpus(200, 0):
        m = inst.m
        large = is_large_u(m)
        assert large == is_large_u_by_subspace(m)
        seen_u.add(large)
        for p in m.weights():
            large_p = is_large_u_p(m, p)
            assert large_p == is_large_u_p_by_subspace(m, p)
            seen_up.add(large_p)
    assert seen_u == {True, False} and seen_up == {True, False}
