"""W_{-1}End(M) on its index set, and the worklist closure of sampled stable
subspaces, against the subquotient and fixed-point oracles.

``total_class`` and ``lower_end_class`` restrict End(M) to the strictly
lowering indices instead of calling ``subquotient``; ``sample_stable_subspace``
closes its span with a worklist instead of repeated full passes.  On seeded
corpus objects over every recipe both must give exactly what the old paths
give.
"""

from oracles import (lower_end_class_by_subquotient, sample_stable_subspace_fixed_point,
                     total_class_by_subquotient)
from panache.cohomology import (e_p_class, is_split, lower_end_class, quotient_class,
                                total_class, transport_to_target)
from panache.corpus import RECIPES, corpus, recipe_presentation, sample_stable_subspace
from panache.galois import u_of, u_p_of
from panache.objects import random_object


def assert_same_class(fast, slow):
    assert fast.target.characters == slow.target.characters
    assert fast.target.actions == slow.target.actions
    assert fast.comps == slow.comps
    assert fast.embed.matrix == slow.embed.matrix
    assert fast.normal == slow.normal


def test_total_class_matches_subquotient_oracle():
    recipes = set()
    for inst in corpus(300, 0):
        m = inst.m
        fast, slow = total_class(m), total_class_by_subquotient(m)
        assert_same_class(fast, slow)
        u = u_of(m)
        assert (is_split(quotient_class(fast, u)).split
                == is_split(quotient_class(slow, u)).split)
        if inst.seed % 15 == 0:
            for cut in m.weights()[:-1]:
                e = e_p_class(m, cut)
                assert_same_class(lower_end_class(m, e), lower_end_class_by_subquotient(m, e))
        recipes.add(inst.recipe)
    assert recipes == {r.name for r in RECIPES}


def test_lower_end_basis_follows_characters_not_indices():
    """Characters out of weight order: the block basis is sorted by the
    character of e_k, which is not the order of k."""
    m = random_object(recipe_presentation("kummer-chain"), [2, 0, 1], 0.9, seed=3)
    t = total_class(m)
    assert_same_class(t, total_class_by_subquotient(m))
    cols = [next(k for k in range(m.dim ** 2) if t.embed.matrix.data[k][c] != 0)
            for c in range(t.target.dim)]
    assert cols == [2, 7, 1]
    assert t.target.characters == ((1,), (1,), (2,))


def test_sampled_subspaces_match_fixed_point_oracle():
    sampled = missing = 0
    for inst in corpus(130, 0):
        m = inst.m
        t = total_class(m)
        targets = [(t, transport_to_target(t, u_of(m).space))]
        for cut in m.weights()[:-1]:
            e = e_p_class(m, cut)
            targets.append((e, transport_to_target(e, u_p_of(m, cut).space)))
        for e, avoid in targets:
            for s in range(5):
                seed = inst.seed * 7 + s
                fast = sample_stable_subspace(e.target, e.target, seed=seed, avoid=avoid)
                slow = sample_stable_subspace_fixed_point(e.target, seed, avoid=avoid)
                assert fast == slow, (inst.recipe, inst.seed, s)
                sampled += 1
                missing += fast is None
    assert sampled >= 2000 and missing > 0, (sampled, missing)
