"""The block layout of filtered objects: ``glue`` writes it, ``block_comps``
reads it, ``inclusion``/``projection`` map it."""

import pytest

from panache.blends import blend_with_corner, extract_pair
from panache.corpus import corpus
from panache.linalg import Mat
from panache.objects import _restrict, block_comps, glue, inclusion, projection


def layer_cuts():
    """Every consecutive weight triple of the corpus objects: the cut pair
    (w_j, w_j+1) with its three index layers."""
    for inst in corpus(120, 0):
        m = inst.m
        ws = m.weights()
        for lo, mid in zip(ws, ws[1:-1]):
            layers = ([a for a in range(m.dim) if m.weight_of(a) <= lo],
                      [a for a in range(m.dim) if m.weight_of(a) == mid],
                      [a for a in range(m.dim) if m.weight_of(a) > mid])
            yield inst.recipe, inst.seed, m, (lo, mid), layers


CUTS = list(layer_cuts())


def test_corpus_covers_every_recipe_and_cut():
    assert len(CUTS) == 134
    assert {recipe for recipe, *_ in CUTS} == {"kummer-chain", "three-step", "ia3-chain",
                                               "rank2", "rank2-deep"}


def same_object(x, y):
    return x.characters == y.characters and x.actions == y.actions


@pytest.mark.parametrize("recipe, seed, m, cuts, layers", CUTS,
                         ids=[f"{r}-{s}-{c[0]}" for r, s, _, c, _ in CUTS])
def test_glue_and_blend_rebuild_the_layers(recipe, seed, m, cuts, layers):
    b, a, c = layers
    ordered = _restrict(m, b + a + c)
    parts = [_restrict(m, idx) for idx in layers]
    blocks = {(r, s): block_comps(m, layers[r], layers[s]) for r, s in ((0, 1), (1, 2), (0, 2))}
    assert same_object(glue(parts, blocks, ordered.labels), ordered)
    diagram = blend_with_corner(extract_pair(m, *cuts), block_comps(m, b, c))
    assert same_object(diagram.m, ordered)
    assert diagram.m.validate() == []
    assert diagram.validate() == []


@pytest.fixture(scope="module")
def pair_and_corner():
    m = next(iter(corpus(1, 0))).m
    ws = m.weights()
    pair = extract_pair(m, ws[0], ws[1])
    b = [k for k in range(m.dim) if m.weight_of(k) <= ws[0]]
    c = [k for k in range(m.dim) if m.weight_of(k) > ws[1]]
    return pair, block_comps(m, b, c)


def test_blend_with_corner_rejects_a_corner_of_the_wrong_length(pair_and_corner):
    pair, corner = pair_and_corner
    assert corner, "the corpus object has a nonzero corner"
    blend_with_corner(pair, corner)
    g, flat = next(iter(corner.items()))
    for bad in (tuple(flat) + (1,), tuple(flat)[:-1]):
        with pytest.raises(ValueError, match="entries, not"):
            blend_with_corner(pair, {**corner, g: bad})


def test_glue_rejects_a_block_off_the_upper_triangle(pair_and_corner):
    pair, _ = pair_and_corner
    parts = [pair.b, pair.a]
    labels = pair.b.labels + pair.a.labels
    for key in ((1, 0), (0, 0), (0, 2)):
        with pytest.raises(ValueError, match="not above the diagonal"):
            glue(parts, {key: {}}, labels)


def test_coordinate_maps_are_transposes(pair_and_corner):
    pair, corner = pair_and_corner
    m = blend_with_corner(pair, corner).m
    top = range(pair.b.dim + pair.a.dim, m.dim)
    incl = inclusion(pair.c, m, top)
    proj = projection(m, pair.c, top)
    assert proj.matrix == incl.matrix.transpose()
    assert proj.matrix.matmul(incl.matrix) == Mat.identity(pair.c.dim)
    assert proj.validate() == []
