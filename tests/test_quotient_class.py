"""Quotient classes without the subobject, against the subquotient oracle.

``quotient_class`` moves an End-coordinate span into the class target by
coordinate lookup, then reduces each component against the span's RREF rows
(``objects.quotient_by``).  ``oracles.quotient_class_by_subquotient`` solves
a linear system per row, builds the whole subquotient and pushes the class
along its projection.  On seeded corpus objects over every recipe, with each
span given in End(M) coordinates and in the target's own, both must give the
same quotient, class and verdict, or the same error.
"""

import random

import pytest

from oracles import quotient_class_by_subquotient
from panache.cohomology import (ExtClassHandle, e_p_class, is_split, lower_end_class,
                                quotient_class, total_class, transport_to_target)
from panache.corpus import RECIPES, corpus, sample_stable_subspace
from panache.galois import u_of, u_p_of
from panache.linalg import ZERO, Subspace, rref_basis
from panache.objects import Morphism


def outcome(fn, e, s):
    try:
        return fn(e, s)
    except ValueError as exc:
        return str(exc)


def assert_same_quotient(fast, slow):
    assert fast.target.characters == slow.target.characters
    assert fast.target.labels == slow.target.labels
    assert fast.target.actions == slow.target.actions
    assert fast.comps == slow.comps
    assert fast.normal == slow.normal
    assert is_split(fast).split == is_split(slow).split


def in_end_coordinates(e, s):
    """A span in the class target's coordinates, moved into End(M)'s."""
    n = e.embed.target.dim
    return rref_basis([e.embed.matrix.apply(list(row)) for row in s.basis], n) \
        if s.dim else Subspace.zero(n)


def block_classes(m):
    """(class, its kernel in End(M) coordinates, samples to draw): the total
    class with u(M), and each cut class with u_p(M)."""
    out = [(total_class(m), u_of(m).space, 3)]
    for p in m.weights()[:-1]:
        out.append((e_p_class(m, p), u_p_of(m, p).space, 1))
    return out


def test_quotient_class_matches_subquotient_oracle():
    compared = 0
    verdicts = set()
    recipes = set()
    for inst in corpus(150, 0):
        m = inst.m
        for k, (e, kernel, samples) in enumerate(block_classes(m)):
            kernel_t = transport_to_target(e, kernel)
            spaces = [kernel, kernel_t]
            for j in range(samples if e.target.dim else 0):
                s = sample_stable_subspace(e.target, e.target,
                                           seed=inst.seed * 53 + 7 * k + j, avoid=kernel_t)
                if s is not None:
                    spaces += [s, in_end_coordinates(e, s)]
            for s in spaces:
                fast = quotient_class(e, s)
                assert_same_quotient(fast, quotient_class_by_subquotient(e, s))
                verdicts.add(is_split(fast).split)
                compared += 1
        recipes.add(inst.recipe)
    assert recipes == {r.name for r in RECIPES}
    assert verdicts == {True, False}
    assert compared >= 1500, compared


def random_spans(e, rng):
    """One-vector spans, in both coordinate systems, that may be
    inhomogeneous or unstable: over the whole target and over one character.
    Plus an End(M) span with one entry off the embedded block."""
    x = e.target
    chars = sorted(x.character_set())
    spans = []
    for support in (range(x.dim), x.char_indices(chars[rng.randrange(len(chars))])):
        v = [ZERO] * x.dim
        for a in support:
            v[a] = rng.randint(-2, 2)
        if any(v):
            s = rref_basis([v], x.dim)
            spans += [s, in_end_coordinates(e, s)]
    n = e.embed.target.dim
    block = {k for k, row in enumerate(e.embed.matrix.data) if any(row)}
    off = [k for k in range(n) if k not in block]
    v = [ZERO] * n
    for k in block:
        v[k] = rng.randint(-2, 2)
    v[off[rng.randrange(len(off))]] = rng.choice([-1, 1])
    spans.append(rref_basis([v], n))
    spans.append(Subspace.zero(n + 1))
    return spans


def test_quotient_class_errors_match_oracle():
    errors = {}
    for inst in corpus(150, 0):
        rng = random.Random(inst.seed)
        for e, _, _ in block_classes(inst.m):
            if e.target.dim == 0:
                continue
            for s in random_spans(e, rng):
                fast = outcome(quotient_class, e, s)
                slow = outcome(quotient_class_by_subquotient, e, s)
                if isinstance(slow, str):
                    assert fast == slow, (inst.recipe, inst.seed)
                    reason = slow.split(" under ")[0]
                    errors[reason] = errors.get(reason, 0) + 1
                else:
                    assert_same_quotient(fast, slow)
    assert errors["subspace is not character-homogeneous"] >= 100, errors
    assert errors["subspace is not stable"] >= 100, errors
    assert errors["subspace is not contained in the block target"] >= 100, errors
    assert errors["subspace coordinates do not match the class target"] >= 100, errors
    assert len(errors) == 4, errors


def test_block_embedding_must_be_a_coordinate_inclusion():
    inst = next(i for i in corpus(20, 0) if len(i.m.weights()) >= 2)
    m = inst.m
    p = m.weights()[0]
    e = e_p_class(m, p)
    scaled = ExtClassHandle(e.target, e.comps, hom_source=e.hom_source,
                            hom_target=e.hom_target,
                            embed=Morphism(e.target, e.embed.target, e.embed.matrix.scale(2)))
    with pytest.raises(ValueError, match="not a coordinate inclusion"):
        quotient_class(scaled, u_p_of(m, p))
    with pytest.raises(ValueError, match="not a coordinate inclusion"):
        lower_end_class(m, scaled)
    # a span in the target's own coordinates needs no embedding
    assert quotient_class(scaled, Subspace.zero(e.target.dim)).comps == e.comps
