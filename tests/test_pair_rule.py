"""The pruned generator-pair rule against the all-pairs oracles.

``RepObject.validate``, ``cocycle_defects`` and ``h1_basis`` check only the
pairs ``GroupPresentation.pairs_touching`` names.  On seeded corpus objects
over every recipe, some of them perturbed into invalid ones, they must give
exactly what a scan of every pair gives.
"""

import random
from fractions import Fraction

from oracles import cocycle_defects_all_pairs, h1_basis_all_pairs, validate_all_pairs
from panache.cohomology import ExtClassHandle, e_p_class, h1_basis
from panache.corpus import RECIPES, corpus_instance
from panache.linalg import Mat
from panache.objects import RepObject
from panache.presentations import add_deg


def perturbed_object(m, rng):
    """Add a nonzero entry to one generator's action: on an equivariant
    cell when there is one (mostly), anywhere otherwise."""
    p = m.presentation
    actions = {i: Mat.from_rows([list(r) for r in a.data]) for i, a in m.actions.items()}
    g = rng.randrange(p.n_gens)
    cells = [(a, b) for a in range(m.dim) for b in range(m.dim)
             if m.characters[a] == add_deg(m.characters[b], p.degree(g))]
    if cells and rng.random() < 0.9:
        a, b = rng.choice(cells)
    else:
        a, b = rng.randrange(m.dim), rng.randrange(m.dim)
    mat = actions.setdefault(g, Mat.zeros(m.dim, m.dim))
    mat.data[a][b] += rng.choice([-2, -1, 1, 2])
    return RepObject(p, m.labels, m.characters, actions)


def perturbed_class(e, rng):
    """Add a nonzero entry to one admissible cocycle component."""
    x, p = e.target, e.target.presentation
    cells = [(i, a) for i in range(p.n_gens) for a in range(x.dim)
             if x.characters[a] == p.degree(i)]
    if not cells:
        return e
    i, a = rng.choice(cells)
    comps = {j: list(v) for j, v in e.comps.items()}
    comps.setdefault(i, [Fraction(0)] * x.dim)[a] += rng.choice([-1, 1, 2])
    return ExtClassHandle(x, {j: tuple(v) for j, v in comps.items()},
                          e.hom_source, e.hom_target)


def test_validate_matches_all_pairs_oracle():
    rng = random.Random(20221018)
    kinds = {"valid": 0, "equivariance": 0, "lie-hom": 0}
    for k in range(300):
        m = corpus_instance(RECIPES[k % len(RECIPES)].name, k).m
        if rng.random() < 0.5:
            m = perturbed_object(m, rng)
        problems = m.validate()
        assert problems == validate_all_pairs(m), (k, problems)
        kinds[problems[0].split(":")[0] if problems else "valid"] += 1
    assert kinds["equivariance"] + kinds["lie-hom"] >= 100, kinds
    assert kinds["lie-hom"] >= 50, kinds


def test_cocycle_defects_and_h1_basis_match_all_pairs_oracle():
    rng = random.Random(20221019)
    classes = defective = h1_classes = 0
    for k in range(200):
        m = corpus_instance(RECIPES[k % len(RECIPES)].name, k).m
        targets = [m]
        for cut in m.weights()[:-1]:
            e = e_p_class(m, cut)
            targets.append(e.target)
            if rng.random() < 0.5:
                e = perturbed_class(e, rng)
            defects = e.cocycle_defects()
            assert defects == cocycle_defects_all_pairs(e), (k, cut)
            classes += 1
            defective += bool(defects)
        for x in targets:
            fast = [(c.comps, c.normal) for c in h1_basis(x)]
            assert fast == [(c.comps, c.normal) for c in h1_basis_all_pairs(x)], k
            h1_classes += len(fast)
    assert classes >= 300 and defective >= 100, (classes, defective)
    assert h1_classes >= 500, h1_classes
