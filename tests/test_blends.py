"""Blended extensions, pair equivalence, patching, and the search."""

from fractions import Fraction

import pytest

from panache.blends import (CompatiblePair, attached_unique, blend,
                            counterexample_search, is_large_u, is_large_u_p,
                            is_totally_nonsplit, pair_act, pair_equivalent,
                            sample_commuting_object, theorem3_verify,
                            verify_certificate, abelian_search_presentation)
from panache.cohomology import (ExtClassHandle, e_p_class, ext1_class, is_split,
                                quotient_class, yoneda_compose)
from panache.galois import u_p_of
from panache.linalg import Mat
from panache.objects import (RepObject, gr_object, is_isomorphic, random_object,
                             simple_character, unit_object, weight_filtration,
                             weight_quotient)
from panache.presentations import (abelian_presentation, free_graded_lie,
                                   tate_convention)


@pytest.fixture(scope="module")
def rank_two():
    p = abelian_presentation(1, (-2,), [(1,), (1,)], names=["x", "y"])
    return (p, simple_character(p, (2,)), simple_character(p, (1,)),
            unit_object(p))


def tate_free(degrees, bound, names=None):
    rank, weight = tate_convention()
    return free_graded_lie(rank, weight, degrees, bound, names=names)


@pytest.fixture(scope="module")
def kummer():
    p = tate_free([(1,)], -2, names=["k"])
    return RepObject(p, ("e1", "e0"), ((1,), (0,)),
                     {0: Mat.from_rows([[0, 1], [0, 0]])})


def test_large_u_predicates(kummer):
    assert is_large_u(kummer)
    assert is_large_u_p(kummer, -2)
    assert not is_large_u(gr_object(kummer))
    # semisimple with trivial lower block is vacuously large
    one = unit_object(kummer.presentation)
    assert is_large_u(one)


def test_large_iff_all_cuts_large():
    p = tate_free([(1,), (1,)], -4, names=["x", "y"])
    for seed in range(10):
        m = random_object(p, [0, 1, 2], 0.8, seed=seed)
        all_cuts = all(is_large_u_p(m, cut) for cut in m.weights())
        assert is_large_u(m) == all_cuts


def test_totally_nonsplit(kummer):
    p = kummer.presentation
    e = e_p_class(kummer, -2)
    assert is_totally_nonsplit(e)
    target = RepObject(p, ("a", "b"), ((1,), (1,)), {})
    partial = ExtClassHandle(target, {0: (Fraction(1), Fraction(0))})
    assert not is_totally_nonsplit(partial)
    assert not is_totally_nonsplit(ExtClassHandle(target, {}))


def test_blend_fixture_obstructed(rank_two):
    _, b, a, c = rank_two
    l_cls = ext1_class(a, b, {0: [1], 1: [0]})
    n_cls = ext1_class(c, a, {0: [0], 1: [1]})
    res = blend(CompatiblePair(b, a, c, l_cls, n_cls))
    assert not res.ok
    assert res.obstruction is not None and not res.obstruction.is_zero()
    assert res.certificate is not None


def test_blend_fixture_compatible(rank_two):
    _, b, a, c = rank_two
    l_cls = ext1_class(a, b, {0: [1], 1: [0]})
    n_cls = ext1_class(c, a, {0: [2], 1: [0]})
    res = blend(CompatiblePair(b, a, c, l_cls, n_cls))
    assert res.ok
    d = res.diagram
    assert d.validate() == []
    assert d.m.validate() == []
    assert d.m.dim == 3


def test_blend_split_side_always_works(rank_two):
    _, b, a, c = rank_two
    l_cls = ext1_class(a, b, {0: [1], 1: [0]})
    n_split = ext1_class(c, a, {})
    res = blend(CompatiblePair(b, a, c, l_cls, n_split))
    assert res.ok and res.diagram.validate() == []


def test_blend_rejects_bad_pairs(rank_two):
    _, b, a, c = rank_two
    l_cls = ext1_class(a, b, {0: [1], 1: [0]})
    n_cls = ext1_class(c, a, {0: [2], 1: [0]})
    with pytest.raises(ValueError):
        CompatiblePair(a, b, c, l_cls, n_cls)   # weights out of order


def test_blended_object_recovers_pieces(rank_two):
    """The middle of a blend has the three outer objects as its filtration
    pieces."""
    _, b, a, c = rank_two
    l_cls = ext1_class(a, b, {0: [1], 1: [0]})
    n_cls = ext1_class(c, a, {0: [2], 1: [0]})
    res = blend(CompatiblePair(b, a, c, l_cls, n_cls))
    m = res.diagram.m
    wb = b.max_weight()
    wa = a.max_weight()
    sub_b = weight_filtration(m, wb).source
    assert is_isomorphic(sub_b, b).status == "yes"
    mid = weight_quotient(weight_filtration(m, wa).source, wb)
    # quotient of the filtration step by the lower piece
    from panache.objects import subquotient
    from panache.linalg import rref_basis
    step = weight_filtration(m, wa).source
    low_idx = [i for i in range(step.dim) if step.weight_of(i) <= wb]
    rows = []
    for i in low_idx:
        row = [0] * step.dim
        row[i] = 1
        rows.append(row)
    sq = subquotient(step, rref_basis(rows, step.dim))
    assert is_isomorphic(sq.quotient, a).status == "yes"
    top = weight_quotient(m, wa).target
    assert is_isomorphic(top, c).status == "yes"


def test_yoneda_blend_oracle_agreement(rank_two):
    import random
    _, b, a, c = rank_two
    rng = random.Random(3)
    agreements = 0
    for _ in range(40):
        l_cls = ext1_class(a, b, {0: [rng.randint(-2, 2)], 1: [rng.randint(-2, 2)]})
        n_cls = ext1_class(c, a, {0: [rng.randint(-2, 2)], 1: [rng.randint(-2, 2)]})
        res = blend(CompatiblePair(b, a, c, l_cls, n_cls))
        assert res.ok == yoneda_compose(l_cls, n_cls).is_zero()
        agreements += 1
    assert agreements == 40


def test_attached_unique_on_free_model():
    """With no extensions of the top by the bottom, the attached object is
    unique and rebuilt blends are isomorphic."""
    model_p = tate_free([(1,), (3,)], -8, names=["k", "s3"])
    b = simple_character(model_p, (4,))
    a = simple_character(model_p, (1,))
    c = unit_object(model_p)
    l_cls = ext1_class(a, b, {model_p.index_of("s3"): [1]})
    n_cls = ext1_class(c, a, {model_p.index_of("k"): [1]})
    res = attached_unique(CompatiblePair(b, a, c, l_cls, n_cls))
    assert res.status == "unique"
    assert res.iso.status == "yes"


def test_attached_unique_not_compatible(rank_two):
    _, b, a, c = rank_two
    l_cls = ext1_class(a, b, {0: [1], 1: [0]})
    n_cls = ext1_class(c, a, {0: [0], 1: [1]})
    assert attached_unique(CompatiblePair(b, a, c, l_cls, n_cls)).status == \
        "not_compatible"


def test_pair_equivalence_scalings(rank_two):
    _, b, a, c = rank_two
    l_cls = ext1_class(a, b, {0: [1], 1: [0]})
    n_cls = ext1_class(c, a, {0: [2], 1: [0]})
    base = CompatiblePair(b, a, c, l_cls, n_cls)
    scaled = CompatiblePair(b, a, c, l_cls.scale(2), n_cls.scale(3))
    assert pair_equivalent(base, scaled).status == "equivalent"
    # identity action
    assert pair_equivalent(base, base).status == "equivalent"
    # splitness is an orbit invariant
    degenerate = CompatiblePair(b, a, c, ext1_class(a, b, {}), n_cls)
    assert pair_equivalent(base, degenerate).status == "not_equivalent"


def test_pair_equivalence_power_obstruction(rank_two):
    """B, A and C are one-dimensional, so an automorphism triple scales the
    components of L on both generators by one common factor: L' = 2L is in
    the orbit, but a change in the ratio of the two components is not."""
    _, b, a, c = rank_two
    l_cls = ext1_class(a, b, {0: [1], 1: [0]})
    n_cls = ext1_class(c, a, {0: [1], 1: [0]})
    base = CompatiblePair(b, a, c, l_cls, n_cls)
    # L' = 2 L and N' = N forces beta*alpha = 2 and alpha^{-1}*gamma = 1 with
    # a single shared component per object: solvable
    ok = CompatiblePair(b, a, c, l_cls.scale(2), n_cls)
    assert pair_equivalent(base, ok).status == "equivalent"
    # but an inconsistent ratio pattern on the same component is not
    l2 = ext1_class(a, b, {0: [1], 1: [2]})
    base2 = CompatiblePair(b, a, c, l2, n_cls)
    twisted = CompatiblePair(b, a, c, ext1_class(a, b, {0: [1], 1: [3]}), n_cls)
    assert pair_equivalent(base2, twisted).status == "not_equivalent"


def test_pair_action_preserves_blends(rank_two):
    """Acting by an automorphism triple gives an equivalent pair whose blend
    is isomorphic."""
    _, b, a, c = rank_two
    l_cls = ext1_class(a, b, {0: [1], 1: [0]})
    n_cls = ext1_class(c, a, {0: [2], 1: [0]})
    pair = CompatiblePair(b, a, c, l_cls, n_cls)
    moved = pair_act(pair, Mat.from_rows([[Fraction(3)]]),
                     Mat.from_rows([[Fraction(2)]]),
                     Mat.from_rows([[Fraction(5)]]))
    assert pair_equivalent(pair, moved).status == "equivalent"
    m1 = blend(pair).diagram.m
    m2 = blend(moved).diagram.m
    assert is_isomorphic(m1, m2).status == "yes"


def test_theorem3_fixture():
    """A blended three-step object with spaced twists satisfies all three
    hypotheses and the conclusion."""
    model_p = tate_free([(1,), (3,)], -8, names=["k", "s3"])
    b = simple_character(model_p, (4,))
    a = simple_character(model_p, (1,))
    c = unit_object(model_p)
    l_cls = ext1_class(a, b, {model_p.index_of("s3"): [1]})
    n_cls = ext1_class(c, a, {model_p.index_of("k"): [1]})
    m = blend(CompatiblePair(b, a, c, l_cls, n_cls)).diagram.m
    rep = theorem3_verify(m, -2)
    assert rep.hyp_sub_large and rep.hyp_quot_large and rep.hyp_axiom
    assert rep.conclusion_large and rep.implication_ok and rep.converse_ok
    assert rep.dim_u == 3


def test_theorem3_semisimple_failure():
    p = tate_free([(1,), (1,)], -4, names=["x", "y"])
    m = RepObject(p, ("c2", "c1", "c0"), ((2,), (1,), (0,)), {})
    rep = theorem3_verify(m, -2)
    assert not rep.hyp_quot_large
    assert not rep.conclusion_large
    assert rep.implication_ok


def test_theorem3_requires_unit_quotient(kummer):
    p = kummer.presentation
    m = RepObject(p, ("a", "b"), ((1,), (1,)), {})
    with pytest.raises(ValueError):
        theorem3_verify(m, -2)


def test_theorem3_ia_failure_instance():
    """The doubled-gap pattern realises nonsplit quotients: hypotheses (i)
    and (ii) can hold with both the axiom and the conclusion failing."""
    out = counterexample_search([0, -2, -4], range(0, 300))
    assert out.found
    assert verify_certificate(out.system, out.certificate)
    # rebuild the found object and inspect it
    pres = abelian_search_presentation([0, 1, 2], [1, 1])
    m = sample_commuting_object(pres, [0, 1, 2], out.seed)
    assert m.validate() == []
    e = e_p_class(m, out.p)
    assert not is_split(quotient_class(e, u_p_of(m, out.p))).split


def test_search_not_found_on_spaced_pattern():
    out = counterexample_search([0, -2, -6, -14], range(0, 60),
                                degrees=[1, 2, 3, 4, 6, 7])
    assert not out.found
    assert out.log["checked"] > 0


def test_search_rejects_odd_weights():
    with pytest.raises(ValueError):
        counterexample_search([0, -1], range(0, 2))


def test_found_instance_kernel_exceeds_cut_kernels():
    """The shipped counterexample instance realises the strict inclusion:
    every per-cut kernel block vanishes while the kernel itself does not."""
    import os
    from panache.workspace import load_workspace
    from panache.galois import u_of
    from panache.linalg import Subspace
    path = os.path.join(os.path.dirname(__file__), "fixtures",
                        "nonsplit-instance.json")
    m = load_workspace(path).object("nonsplit_instance")
    u = u_of(m)
    assert u.dim == 1
    total = Subspace.zero(m.dim * m.dim)
    for p in m.weights():
        block = u_p_of(m, p)
        assert block.dim == 0
        total = total.add(block.space)
    assert total.dim < u.dim


def test_search_sharding_is_deterministic():
    """Scanning a range equals scanning its shards: found seeds agree."""
    whole = counterexample_search([0, -2, -4], range(0, 40), stop_at_first=True)
    first_half = counterexample_search([0, -2, -4], range(0, 20), stop_at_first=True)
    assert whole.found and first_half.found
    assert whole.seed == first_half.seed
    again = counterexample_search([0, -2, -4], range(0, 40), stop_at_first=True)
    assert again.seed == whole.seed and again.p == whole.p


def test_extract_pair_round_trip(rank_two):
    """Reading the pair off a blend returns the classes that built it, and
    the object is attached to its own extracted pair."""
    from panache.blends import extract_pair, blend_with_corner
    from panache.objects import block_comps
    _, b, a, c = rank_two
    l_cls = ext1_class(a, b, {0: [1], 1: [0]})
    n_cls = ext1_class(c, a, {0: [2], 1: [0]})
    m = blend(CompatiblePair(b, a, c, l_cls, n_cls)).diagram.m
    got = extract_pair(m, b.max_weight(), a.max_weight())
    assert got.l_class.same_class(l_cls)
    assert got.n_class.same_class(n_cls)
    # the object's own corner closes the diagram
    corner = block_comps(m, range(b.dim), range(b.dim + a.dim, m.dim))
    diagram = blend_with_corner(got, corner)
    assert diagram.validate() == []
    assert is_isomorphic(diagram.m, m).status == "yes"


def test_extract_pair_from_random_objects():
    """Random three-layer objects are attached to their extracted pairs."""
    from panache.blends import extract_pair
    from panache.objects import random_object
    p = tate_free([(1,), (1,)], -4, names=["x", "y"])
    tested = 0
    for seed in range(12):
        m = random_object(p, [0, 1, 2], 0.8, seed=seed)
        pair = extract_pair(m, -4, -2)
        res = blend(pair)
        assert res.ok   # the object itself witnesses compatibility
        tested += 1
    assert tested == 12


def test_extract_pair_classification_map_unique_case():
    """When no extension of the top by the bottom exists, blending the
    extracted pair recovers the object up to isomorphism."""
    from panache.blends import extract_pair
    model_p = tate_free([(1,), (3,)], -8, names=["k", "s3"])
    b = simple_character(model_p, (4,))
    a = simple_character(model_p, (1,))
    c = unit_object(model_p)
    l_cls = ext1_class(a, b, {model_p.index_of("s3"): [1]})
    n_cls = ext1_class(c, a, {model_p.index_of("k"): [1]})
    m = blend(CompatiblePair(b, a, c, l_cls, n_cls)).diagram.m
    rebuilt = blend(extract_pair(m, -8, -2)).diagram.m
    assert is_isomorphic(rebuilt, m).status == "yes"


def test_relative_kernels_are_bracket_closed():
    from panache.corpus import corpus
    from panache.galois import u_of, u_p_of, relative_kernel_lie
    from panache.objects import gr_object
    for inst in corpus(8, 31):
        m = inst.m
        assert u_of(m).check_bracket_closed()
        assert relative_kernel_lie(m, gr_object(m)).check_bracket_closed()
        for p in m.weights()[:1]:
            assert u_p_of(m, p).check_bracket_closed()
