"""Extension classes, cohomology bases, splitting and origination."""

from fractions import Fraction

import pytest

from oracles import pushforward_class
from panache.cohomology import (ExtClassHandle, H2Class, dagger_object,
                                e_p_class, exp_ratio, ext1_class,
                                extension_object, h1_basis, h2_basis, is_split,
                                in_subcategory, lower_end_class,
                                min_split_support, nilpotent_exp, nilpotent_log,
                                originates_from, quotient_class, total_class,
                                transport_to_target, yoneda_compose)
from panache.galois import u_of, u_p_of
from panache.linalg import Mat, Subspace
from panache.objects import (Morphism, RepObject, direct_sum, gr_object,
                             internal_hom, is_isomorphic, random_object,
                             simple_character, unit_object, weight_filtration,
                             weight_quotient)
from panache.presentations import (abelian_presentation, free_graded_lie,
                                   tate_convention)


def tate_free(degrees, bound, names=None):
    rank, weight = tate_convention()
    return free_graded_lie(rank, weight, degrees, bound, names=names)


@pytest.fixture(scope="module")
def kummer():
    p = tate_free([(1,)], -2, names=["k"])
    return RepObject(p, ("e1", "e0"), ((1,), (0,)),
                     {0: Mat.from_rows([[0, 1], [0, 0]])})


@pytest.fixture(scope="module")
def chain_presentation():
    return tate_free([(1,), (1,)], -4, names=["x", "y"])


# -- cohomology bases -------------------------------------------------------


def test_h1_unit_vanishes(kummer):
    assert h1_basis(unit_object(kummer.presentation)) == []


def test_h1_twist_dimensions_small_model():
    from panache.mixed_tate import build_mt_model, ext_dim_rule
    m = build_mt_model(5, 2)
    for n in range(1, 6):
        expected = ext_dim_rule(n, desk_rank=2).dim()
        assert len(h1_basis(simple_character(m, (n,)))) == expected


def test_structural_h1_matches_generic():
    """The length-grading shortcut agrees with the elimination path on a
    model small enough to run both."""
    from panache.mixed_tate import build_mt_model
    model = build_mt_model(5, 2)
    for n in range(1, 6):
        x = simple_character(model, (n,))
        fast = h1_basis(x)
        # force the generic path by stripping the free tag
        stripped = RepObject(
            model, x.labels, x.characters, dict(x.actions))
        plain = model.__class__(model.torus_rank, model.weight, model.generators,
                                model.table, free_meta=None)
        stripped.presentation = plain
        slow = h1_basis(stripped)
        assert len(fast) == len(slow)
        fast_norms = {tuple(sorted(c.normal.items())) for c in fast}
        slow_norms = {tuple(sorted(c.normal.items())) for c in slow}
        assert fast_norms == slow_norms


def test_structural_h2_matches_generic():
    """The no-relations shortcut agrees with the elimination path; the
    82-generator (7, 2) model lies past the old 60-generator cap.  Twists
    past the truncation bound fall through to the elimination path, where
    the truncation leaves relations and so nonzero classes."""
    from panache.mixed_tate import build_mt_model
    for max_twist in (5, 7):
        model = build_mt_model(max_twist, 2)
        plain = model.__class__(model.torus_rank, model.weight, model.generators,
                                model.table, free_meta=None)
        for n in range(1, max_twist + 3):
            fast = h2_basis(simple_character(model, (n,)))
            slow = h2_basis(simple_character(plain, (n,)))
            assert fast == slow, (max_twist, n)
            assert (fast != []) == (n > max_twist), (max_twist, n)


def test_h2_abelian_rank_two():
    p = abelian_presentation(1, (-2,), [(1,), (1,)], names=["x", "y"])
    assert len(h2_basis(simple_character(p, (2,)))) == 1
    assert len(h1_basis(simple_character(p, (1,)))) == 2


# -- filtration classes -----------------------------------------------------


def test_e_p_zero_actions():
    p = tate_free([(1,)], -2)
    m = RepObject(p, ("a", "b"), ((1,), (0,)), {})
    e = e_p_class(m, -2)
    assert e.is_zero_class()


def test_e_p_kummer_nonsplit(kummer):
    e = e_p_class(kummer, -2)
    assert e.cocycle_defects() == []
    assert not e.is_zero_class()
    verdict = is_split(e)
    assert not verdict.split and verdict.certificate is not None
    # the group law: e + (-e) splits
    assert is_split(e.add(e.negate())).split


def test_e_p_above_top_weight(kummer):
    e = e_p_class(kummer, 0)
    assert e.target.dim == 0 and e.is_zero_class()


def test_e_p_cocycle_identity_on_random_instances(chain_presentation):
    for seed in range(10):
        m = random_object(chain_presentation, [0, 1, 1, 2], 0.8, seed=seed)
        for cut in m.weights()[:-1]:
            assert e_p_class(m, cut).cocycle_defects() == []


def test_dagger_object(kummer):
    p = kummer.presentation
    dag, surj = dagger_object(kummer, -2)
    assert dag.dim == 2 and dag.validate() == []
    assert surj.validate() == []
    assert not is_isomorphic(dag, gr_object(dag)).status == "yes"
    # pure object: split dagger
    pure = RepObject(p, ("a", "b"), ((1,), (0,)), {})
    dag2, _ = dagger_object(pure, -2)
    assert is_isomorphic(dag2, gr_object(dag2)).status == "yes"
    # empty quotient: dagger is the unit
    dag3, surj3 = dagger_object(kummer, 0)
    assert dag3.dim == 1 and surj3.matrix == Mat.identity(1)


def test_dagger_reproduces_class(kummer):
    """The middle object of the defining sequence has the class cocycle in
    its action column."""
    e = e_p_class(kummer, -2)
    ext, incl, surj = extension_object(e)
    assert ext.validate() == []
    assert incl.validate() == [] and surj.validate() == []
    dag, _ = dagger_object(kummer, -2)
    assert is_isomorphic(ext, dag).status == "yes"


def test_total_class_is_action_valued(chain_presentation):
    """Every component of the total class lies in the span of the actions,
    scaled by the weight drop of its generator."""
    for seed in range(6):
        m = random_object(chain_presentation, [0, 1, 2], 0.8, seed=seed)
        t = total_class(m)
        u = u_of(m)
        for i, v in t.comps.items():
            flat = t.embed.matrix.apply(list(v))
            assert u.space.contains(flat)
            drop = -m.presentation.gen_weight(i)
            expected = m.action(i).scale(drop).flat()
            assert flat == expected


def test_pushforward_functorial(kummer):
    e = e_p_class(kummer, -2)
    ident = Morphism.identity(e.target)
    assert pushforward_class(e, ident).same_class(e)
    zero = Morphism(e.target, e.target, Mat.zeros(e.target.dim, e.target.dim))
    assert pushforward_class(e, zero).is_zero_class()


def test_quotient_class_edges(kummer):
    e = e_p_class(kummer, -2)
    unchanged = quotient_class(e, Subspace.zero(e.target.dim))
    assert unchanged.comps == e.comps
    killed = quotient_class(e, Subspace.full(e.target.dim))
    assert killed.target.dim == 0 and killed.is_zero_class()


def test_split_iff_originates_from_unit(chain_presentation):
    p = chain_presentation
    one = unit_object(p)
    for seed in range(8):
        m = random_object(p, [0, 1, 2], 0.7, seed=seed)
        for cut in m.weights()[:-1]:
            e = e_p_class(m, cut)
            assert is_split(e).split == originates_from(e, one).holds


def test_origination_lemma_split_comes_from_everything(kummer):
    p = kummer.presentation
    e = e_p_class(kummer, -2)
    zero = e.add(e.negate())
    for s in (unit_object(p), kummer, gr_object(kummer)):
        assert originates_from(zero, s).holds


def test_kummer_class_does_not_originate_from_unit(kummer):
    e = e_p_class(kummer, -2)
    assert not originates_from(e, unit_object(kummer.presentation)).holds
    # but it originates from the two-step subcategory generated by the pieces
    s = direct_sum(weight_filtration(kummer, -2).source,
                   weight_quotient(kummer, -2).target)
    assert originates_from(quotient_class(e, u_p_of(kummer, -2)), s).holds


def test_origination_object_criterion(kummer):
    """A class against an object of the subcategory originates iff the middle
    object lies in the subcategory."""
    p = kummer.presentation
    q1 = simple_character(p, (1,))
    cls = ext1_class(unit_object(p), q1, {0: [Fraction(1)]})
    ext, _, _ = extension_object(cls)
    assert in_subcategory(ext, kummer)
    assert originates_from(cls, kummer).holds
    assert not originates_from(cls, gr_object(kummer)).holds


def test_in_subcategory(kummer):
    p = kummer.presentation
    assert in_subcategory(kummer, kummer)
    assert in_subcategory(unit_object(p), kummer)
    assert in_subcategory(unit_object(p), unit_object(p))
    assert not in_subcategory(kummer, gr_object(kummer))
    # twist lattice: the double character is in the lattice of the single one
    q2 = simple_character(p, (2,))
    assert in_subcategory(q2, simple_character(p, (1,)))
    assert not in_subcategory(simple_character(p, (1,)), q2)


def test_min_split_support(kummer):
    p = kummer.presentation
    target = RepObject(p, ("a", "b"), ((1,), (1,)), {})
    zero = ExtClassHandle(target, {})
    assert min_split_support(zero).dim == 0
    line = ExtClassHandle(target, {0: (Fraction(1), Fraction(0))})
    assert min_split_support(line).dim == 1
    e = e_p_class(kummer, -2)
    assert min_split_support(e).dim == 1
    with pytest.raises(ValueError):
        min_split_support(ExtClassHandle(internal_hom(kummer, kummer), {}))


def test_min_split_support_is_block_kernel_two_weights(chain_presentation):
    """For two-weight instances the minimal support equals the span of the
    action matrices, read in the block target's coordinates."""
    p = chain_presentation
    for seed in range(8):
        m = random_object(p, [0, 1, 1], 0.8, seed=seed)
        e = e_p_class(m, -2)
        assert min_split_support(e) == transport_to_target(e, u_of(m).space)


def test_lemma_quotient_equivalences(chain_presentation):
    """Quotienting by the cut kernel against the block target splits iff
    quotienting by the full kernel against the lower End target does."""
    p = chain_presentation
    for seed in range(10):
        m = random_object(p, [0, 1, 2], 0.7, seed=seed)
        for cut in m.weights()[:-1]:
            e = e_p_class(m, cut)
            lhs = is_split(quotient_class(e, u_p_of(m, cut))).split
            lower = lower_end_class(m, e)
            rhs = is_split(quotient_class(lower, u_of(m))).split
            assert lhs == rhs


# -- composition pairing ----------------------------------------------------


@pytest.fixture(scope="module")
def rank_two_fixture():
    p = abelian_presentation(1, (-2,), [(1,), (1,)], names=["x", "y"])
    a = simple_character(p, (1,))
    b = simple_character(p, (2,))
    c = unit_object(p)
    return p, a, b, c


def test_yoneda_obstructed_and_not(rank_two_fixture):
    _, a, b, c = rank_two_fixture
    l_cls = ext1_class(a, b, {0: [1], 1: [0]})
    n_bad = ext1_class(c, a, {0: [0], 1: [1]})
    n_good = ext1_class(c, a, {0: [2], 1: [0]})
    assert not yoneda_compose(l_cls, n_bad).is_zero()
    assert yoneda_compose(l_cls, n_good).is_zero()
    assert yoneda_compose(l_cls, ext1_class(c, a, {})).is_zero()


def test_yoneda_normal_form(rank_two_fixture):
    _, a, b, c = rank_two_fixture
    l_cls = ext1_class(a, b, {0: [1], 1: [0]})
    n_bad = ext1_class(c, a, {0: [0], 1: [1]})
    nf = yoneda_compose(l_cls, n_bad).normal_form()
    assert nf  # nonzero in cohomology


def test_h2_out_of_layout_cochain_raises(rank_two_fixture):
    """A pair component on a character that no generator pair reaches has
    no place in the layout: both readings of the class refuse it."""
    _, a, _, _ = rank_two_fixture
    cls = H2Class(a, {(0, 1): (1,)})
    with pytest.raises(ValueError, match="outside the equivariant layout"):
        cls.normal_form()
    with pytest.raises(ValueError, match="outside the equivariant layout"):
        cls.is_zero()


# -- exponentials -----------------------------------------------------------


def test_exp_identities():
    x = Mat.zeros(3, 3)
    assert nilpotent_exp(x) == Mat.identity(3)
    block = Mat.from_rows([[0, 5], [0, 0]])
    assert nilpotent_exp(block) == Mat.identity(2) + block
    strict = Mat.from_rows([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
    expd = nilpotent_exp(strict)
    sq = strict.matmul(strict)
    assert expd == Mat.identity(3) + strict + sq.scale(Fraction(1, 2))
    assert nilpotent_log(expd) == strict
    with pytest.raises(ValueError):
        nilpotent_exp(Mat.identity(2))


def test_exp_ratio_series():
    assert exp_ratio(Mat.zeros(2, 2)) == Mat.identity(2)
    n = Mat.from_rows([[0, 1], [0, 0]])
    assert exp_ratio(n) == Mat.identity(2) + n.scale(Fraction(1, 2))
    # (exp(n) - 1) == exp_ratio(n) * n
    lhs = nilpotent_exp(n) - Mat.identity(2)
    assert lhs == exp_ratio(n).matmul(n)


def test_split_iff_unit_origination_on_corpus():
    """The splitting criterion agrees with origination from the unit across
    the random corpus."""
    from panache.corpus import corpus
    from panache.objects import unit_object as unit
    for inst in corpus(25, 77):
        m = inst.m
        one = unit(m.presentation)
        for cut in m.weights()[:-1]:
            e = e_p_class(m, cut)
            assert is_split(e).split == originates_from(e, one).holds
            from panache.galois import u_p_of
            q = quotient_class(e, u_p_of(m, cut))
            assert is_split(q).split == originates_from(q, one).holds


def test_transport_rejects_foreign_subspaces():
    import pytest as _pytest
    from panache.linalg import rref_basis
    from panache.presentations import free_graded_lie, tate_convention
    from panache.objects import RepObject
    from panache.linalg import Mat
    rank, weight = tate_convention()
    p = free_graded_lie(rank, weight, [(1,)], -2, names=["k"])
    k = RepObject(p, ("e1", "e0"), ((1,), (0,)),
                  {0: Mat.from_rows([[0, 1], [0, 0]])})
    e = e_p_class(k, -2)
    # a subspace of End coordinates outside the block cannot be transported
    diag = [0] * 4
    diag[0] = 1
    with _pytest.raises(ValueError):
        quotient_class(e, rref_basis([diag], 4))
    # and coordinates of the wrong ambient dimension are rejected
    with _pytest.raises(ValueError):
        quotient_class(e, rref_basis([[1, 0, 0]], 3))


def test_class_invariant_under_coboundary_shift():
    """Shifting a cocycle by the differential of a character-zero vector
    neither changes the class nor the splitting verdict."""
    import random as _random
    from panache.presentations import free_graded_lie, tate_convention
    from panache.objects import RepObject, internal_hom
    from panache.linalg import Mat, ZERO
    rank, weight = tate_convention()
    p = free_graded_lie(rank, weight, [(1,)], -2, names=["k"])
    k_obj = RepObject(p, ("e1", "e0"), ((1,), (0,)),
                      {0: Mat.from_rows([[0, 1], [0, 0]])})
    x = internal_hom(k_obj, k_obj)
    zero_char = (0,)
    invariant_cols = x.char_indices(zero_char)
    assert invariant_cols
    rng = _random.Random(5)
    for cls in h1_basis(x) + [ExtClassHandle(x, {})]:
        for _ in range(5):
            v = [ZERO] * x.dim
            for c in invariant_cols:
                v[c] = Fraction(rng.randint(-3, 3))
            shifted_comps = {}
            for i in set(cls.comps) | set(x.actions):
                base = list(cls.component(i))
                dv = x.action(i).apply(v)
                shifted_comps[i] = [a + b for a, b in zip(base, dv)]
            shifted = ExtClassHandle(x, shifted_comps)
            assert shifted.same_class(cls)
            assert is_split(shifted).split == is_split(cls).split
