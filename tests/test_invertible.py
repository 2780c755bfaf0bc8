"""One exact invertibility decision behind ``is_isomorphic`` and
``pair_equivalent``: its certificates, its grid cap, and differential runs
against the retired ladder, power-product and random-search paths."""

import random
from collections import Counter
from fractions import Fraction

from panache.blends import CompatiblePair, extract_pair, pair_act, pair_equivalent
from panache.cohomology import ext1_class
from panache.corpus import corpus, recipe_presentation
from panache.linalg import ONE, ZERO, Mat
from panache.objects import (GRID_CAP, Morphism, RepObject, direct_sum, invertible_element,
                             is_isomorphic, morphism_space, random_object,
                             simple_character, unit_object)
from panache.presentations import free_graded_lie, tate_convention

from oracles import is_isomorphic_ladder, pair_equivalent_power_product


def check_iso_witness(m, n, res):
    f = res.witness
    assert f.det() != 0
    assert Morphism(m, n, f).validate() == []


def check_pair_witness(p1, p2, res):
    fb, fa, fc = res.witness
    assert fb.det() != 0 and fa.det() != 0 and fc.det() != 0
    for f, x in ((fb, p1.b), (fa, p1.a), (fc, p1.c)):
        assert Morphism(x, x, f).validate() == []
    moved = pair_act(p1, fb, fa, fc)
    assert moved.l_class.same_class(p2.l_class)
    assert moved.n_class.same_class(p2.n_class)


def flat_unit(n, a, b):
    v = [ZERO] * (n * n)
    v[a * n + b] = ONE
    return v


def square_block(n, offset=0):
    return [[offset + a * n + b for b in range(n)] for a in range(n)]


# ---------------------------------------------------------------------------
# the decision and its certificates


def test_kummer_sums_not_isomorphic():
    """K ⊕ K and K ⊕ 1(1) ⊕ 1(0) share their characters, and their morphism
    space has four parameters, past the retired ladder's exact range."""
    rank, weight = tate_convention()
    p = free_graded_lie(rank, weight, [(1,)], -2, names=["k"])
    k = RepObject(p, ("e1", "e0"), ((1,), (0,)), {0: Mat.from_rows([[0, 1], [0, 0]])})
    kk = direct_sum(k, k)
    other = direct_sum(k, direct_sum(simple_character(p, (1,)), unit_object(p)))
    assert morphism_space(kk, other).dim == 4
    res = is_isomorphic(kk, other)
    assert res.status == "no" and res.witness is None
    assert "character" in res.reason and "vanishes" in res.reason
    # certificates: the action ranks differ, and the full determinant
    # vanishes on the whole {0..4}^4 grid of the morphism space
    assert kk.action(0).rank() == 2 and other.action(0).rank() == 1
    assert is_isomorphic_ladder(kk, other, max_params_exact=4).status == "no"
    assert is_isomorphic_ladder(kk, other).status == "unknown"


def session_pair(pres, l_coeffs, n_coeffs):
    """A pair shaped like the benchmark session's: B = χ3, A = χ1 ⊕ χ1,
    C = unit, with L on the degree-2 and N on the degree-1 generator."""
    one = simple_character(pres, (1,))
    b, a, c = simple_character(pres, (3,)), direct_sum(one, one), unit_object(pres)
    deg1, deg2 = pres.gens_of_degree((1,))[0], pres.gens_of_degree((2,))[0]
    return CompatiblePair(b, a, c, ext1_class(a, b, {deg2: l_coeffs}),
                          ext1_class(c, a, {deg1: n_coeffs}))


def test_repeated_character_pairs_not_equivalent():
    """L·N is an orbit invariant up to a nonzero scalar: fb⁻¹ L fa · fa⁻¹ N fc
    = fb⁻¹ (L N) fc.  So a pair with L·N = 0 is not equivalent to one with
    L·N != 0, although A repeats a character."""
    pres = recipe_presentation("ia3-chain")
    zero = session_pair(pres, [1, 0], [0, 1])
    nonzero = session_pair(pres, [1, 0], [1, 0])
    for p1, p2 in ((zero, nonzero), (nonzero, zero)):
        res = pair_equivalent(p1, p2)
        assert res.status == "not_equivalent" and res.witness is None
        assert "block" in res.reason and "vanishes" in res.reason
        assert pair_equivalent_power_product(p1, p2).status == "unknown"


def test_session_pairs_equivalent_with_witness():
    """The session's pairs R0 and R1, drawn as the benchmark draws them,
    are equivalent at every seed, and the witness triple re-verifies."""
    pres = recipe_presentation("ia3-chain")
    for seed in (1, 2, 3, 7919, 11, 12):
        rng = random.Random(seed)
        pairs = []
        for _ in range(2):
            l_coeffs = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(2)]
            n_coeffs = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(2)]
            pairs.append(session_pair(pres, l_coeffs, n_coeffs))
        res = pair_equivalent(*pairs, seed=seed)
        assert res.status == "equivalent", (seed, res.reason)
        check_pair_witness(*pairs, res)


def test_grid_cap_names_the_block():
    """4×4 matrices with a zero first row: the det vanishes identically,
    but its 5^12-point grid passes the cap, so the answer is unknown.  The
    2×2 analogue has a 9-point grid and gets its "no"."""
    wide = [flat_unit(4, a, b) for a in range(1, 4) for b in range(4)]
    assert 5 ** 12 > GRID_CAP
    status, element, reason = invertible_element(wide, [("wide", square_block(4))])
    assert (status, element) == ("unknown", None)
    assert "wide" in reason and str(GRID_CAP) in reason
    small = [flat_unit(2, 1, b) for b in range(2)]
    status, element, reason = invertible_element(small, [("small", square_block(2))])
    assert (status, element) == ("no", None) and "small" in reason


def test_coupled_blocks_get_one_witness():
    """Three 1×1 blocks on (t1, t1 + t2, t2): each factor alone is nonzero,
    and the witness keeps all three nonzero at once."""
    basis = [[ONE, ONE, ZERO], [ZERO, ONE, ONE]]
    blocks = [(str(k), [[k]]) for k in range(3)]
    status, element, _ = invertible_element(basis, blocks)
    assert status == "yes" and all(x != 0 for x in element)
    # a 4×4 block of all matrices next to its transpose copy
    full = [flat_unit(4, a, b) + flat_unit(4, b, a) for a in range(4) for b in range(4)]
    status, element, _ = invertible_element(full, [("M", square_block(4)),
                                                   ("M^T", square_block(4, 16))])
    assert status == "yes"
    assert Mat.unflatten(element[:16], 4, 4).det() != 0
    assert Mat.unflatten(element[16:], 4, 4) == Mat.unflatten(element[:16], 4, 4).transpose()


# ---------------------------------------------------------------------------
# differential runs against the retired paths


def random_automorphism(x, rng):
    basis = [Mat.unflatten(list(r), x.dim, x.dim) for r in morphism_space(x, x).basis]
    while True:
        f = Mat.zeros(x.dim, x.dim)
        for g in basis:
            f = f + g.scale(Fraction(rng.randint(-3, 3)))
        if f.det() != 0:
            return f


def corpus_pairs(count):
    for inst in corpus(count, 0):
        ws = inst.m.weights()
        for i in range(len(ws) - 2):
            yield extract_pair(inst.m, ws[i], ws[i + 1])


def random_comps(cls, rng):
    return {i: [rng.choice([0, 1, -1, 2, 3]) if x else 0 for x in v]
            for i, v in cls.comps.items()}


def test_pair_equivalent_matches_power_product():
    """On corpus pairs, their images under random automorphism triples and
    pairs with random components, every verdict the retired path decides
    agrees, and the new path decides every case, with re-verified
    witnesses."""
    rng = random.Random(5)
    seen = Counter()
    for pair in corpus_pairs(40):
        moved = pair_act(pair, *(random_automorphism(x, rng) for x in (pair.b, pair.a, pair.c)))
        shuffled = CompatiblePair(
            pair.b, pair.a, pair.c,
            ext1_class(pair.a, pair.b, random_comps(pair.l_class, rng)),
            ext1_class(pair.c, pair.a, random_comps(pair.n_class, rng)))
        for other, truth in ((pair, "equivalent"), (moved, "equivalent"), (shuffled, None)):
            res = pair_equivalent(pair, other)
            assert res.status != "unknown", res.reason
            if truth is not None:
                assert res.status == truth
            if res.status == "equivalent":
                check_pair_witness(pair, other, res)
            old = pair_equivalent_power_product(pair, other).status
            assert old in ("unknown", res.status)
            seen[res.status, old] += 1
    # both verdicts, each both where the retired path decides and where not
    assert min(seen[v, w] for v in ("equivalent", "not_equivalent")
               for w in (v, "unknown")) > 0, seen


def change_of_basis(m, rng):
    """m transported along a random invertible character-preserving g, with
    g itself, which is an isomorphism m -> image."""
    while True:
        g = Mat.zeros(m.dim, m.dim)
        for a in range(m.dim):
            for b in range(m.dim):
                if m.characters[a] == m.characters[b]:
                    g.data[a][b] = Fraction(rng.randint(-2, 2))
        if g.det() != 0:
            break
    g_inv = g.inverse()
    actions = {i: g.matmul(a).matmul(g_inv) for i, a in m.actions.items()}
    return RepObject(m.presentation, m.labels, m.characters, actions), g


def test_is_isomorphic_matches_ladder():
    """Corpus objects against their change-of-basis images and against
    random objects on the same characters: every verdict the ladder
    decides agrees, and every "yes" witness is an isomorphism."""
    rng = random.Random(11)
    seen = Counter()
    for k, inst in enumerate(corpus(60, 0)):
        m = inst.m
        image, g = change_of_basis(m, rng)
        assert Morphism(m, image, g).validate() == []
        same_chars = random_object(m.presentation, list(m.characters), 0.7, seed=k)
        for n, truth in ((m, "yes"), (image, "yes"), (same_chars, None)):
            res = is_isomorphic(m, n)
            assert res.status != "unknown", res.reason
            if truth is not None:
                assert res.status == truth
            if res.status == "yes":
                check_iso_witness(m, n, res)
            old = is_isomorphic_ladder(m, n).status
            assert old in ("unknown", res.status)
            seen[res.status, old] += 1
    assert seen["yes", "yes"] > 100 and seen["no", "no"] > 0, seen


def test_is_isomorphic_on_doubled_characters():
    """M ⊕ M against M ⊕ M' doubles every character multiplicity, so the
    morphism spaces pass the ladder's exact range: where its random search
    gives up, the new path still decides, and agrees wherever it decides."""
    rng = random.Random(13)
    seen = Counter()
    for k, inst in enumerate(corpus(12, 0)):
        m = inst.m
        image, _ = change_of_basis(m, rng)
        same_chars = random_object(m.presentation, list(m.characters), 0.7, seed=k)
        doubled = direct_sum(m, m)
        for n, truth in ((direct_sum(m, image), "yes"), (direct_sum(m, same_chars), None)):
            res = is_isomorphic(doubled, n)
            assert res.status != "unknown", res.reason
            if truth is not None:
                assert res.status == truth
            if res.status == "yes":
                check_iso_witness(doubled, n, res)
            old = is_isomorphic_ladder(doubled, n).status
            assert old in ("unknown", res.status)
            seen[res.status, old] += 1
    assert seen["no", "unknown"] > 0 and seen["yes", "yes"] > 0, seen
