"""Randomized instance corpus for the property suites.

Instances are deterministic in (recipe, seed): each recipe fixes a truncated
free presentation and a character multiset whose weight spread stays inside
the truncation bound, and the seed drives the sparse equivariant actions.
Presentations are cached per recipe so corpora are cheap to enumerate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .linalg import ZERO, rref_basis, vec_is_zero
from .objects import RepObject, random_object
from .presentations import GroupPresentation, free_graded_lie


@dataclass(frozen=True)
class Recipe:
    name: str
    torus_rank: int
    weight: tuple[int, ...]
    degrees: tuple[tuple[int, ...], ...]
    bound: int
    char_choices: tuple[tuple[tuple[int, ...], ...], ...]


RECIPES: tuple[Recipe, ...] = (
    Recipe("kummer-chain", 1, (-2,), ((1,), (1,)), -4,
           (((0,), (1,), (2,)),
            ((0,), (1,), (1,), (2,)),
            ((0,), (0,), (1,), (2,)),
            ((0,), (1,), (2,), (2,)))),
    Recipe("three-step", 1, (-1,), ((1,), (2,)), -3,
           (((0,), (1,), (3,)),
            ((0,), (2,), (3,)),
            ((0,), (1,), (2,), (3,)),
            ((0,), (1,), (1,), (3,)))),
    Recipe("ia3-chain", 1, (-1,), ((1,), (2,), (3,)), -7,
           (((0,), (1,), (3,)),
            ((0,), (1,), (3,), (7,)),
            ((0,), (2,), (3,), (7,)),
            ((0,), (1,), (5,)))),
    Recipe("rank2", 2, (-1, -1), ((1, 0), (0, 1)), -2,
           (((0, 0), (1, 0), (1, 1)),
            ((0, 0), (0, 1), (1, 1)),
            ((0, 0), (1, 0), (0, 1), (1, 1)),
            ((0, 0), (1, 0), (0, 1), (1, 1), (1, 1)))),
    Recipe("rank2-deep", 2, (-2, -1), ((1, 0), (0, 2), (1, 1)), -5,
           (((0, 0), (1, 0), (1, 1)),
            ((0, 0), (0, 2), (1, 1)),
            ((0, 0), (1, 0), (0, 2), (1, 1)))),
)

RECIPE_INDEX = {r.name: r for r in RECIPES}


@lru_cache(maxsize=None)
def recipe_presentation(name: str) -> GroupPresentation:
    r = RECIPE_INDEX[name]
    return free_graded_lie(r.torus_rank, r.weight, list(r.degrees), r.bound)


@dataclass
class CorpusInstance:
    recipe: str
    seed: int
    m: RepObject


def _stable_tag(name: str) -> int:
    # string hashing is salted per process; keep corpora reproducible
    out = 0
    for ch in name:
        out = (out * 131 + ord(ch)) % 1_000_003
    return out


def corpus_instance(recipe: str, seed: int) -> CorpusInstance:
    r = RECIPE_INDEX[recipe]
    pres = recipe_presentation(recipe)
    rng = random.Random(_stable_tag(recipe) * 1_000_003 + seed)
    chars = list(r.char_choices[rng.randrange(len(r.char_choices))])
    density = rng.choice([0.5, 0.7, 0.9])
    m = random_object(pres, chars, density, seed=rng.randrange(1 << 30))
    return CorpusInstance(recipe, seed, m)


def corpus(count: int, seed0: int = 0, recipes: tuple[str, ...] | None = None,
           predicate=None, max_attempts: int | None = None):
    """Yield ``count`` instances cycling through the recipes, optionally
    filtered by a predicate; deterministic in seed0."""
    names = recipes if recipes is not None else tuple(r.name for r in RECIPES)
    produced = 0
    attempt = 0
    limit = max_attempts if max_attempts is not None else 60 * count + 100
    while produced < count and attempt < limit:
        name = names[attempt % len(names)]
        inst = corpus_instance(name, seed0 + attempt)
        attempt += 1
        if predicate is not None and not predicate(inst.m):
            continue
        produced += 1
        yield inst
    if produced < count:
        raise RuntimeError(
            f"corpus exhausted after {attempt} attempts ({produced}/{count})")


def sample_stable_subspace(m: RepObject, target, seed: int, avoid=None,
                           tries: int = 40):
    """A random action-stable character-homogeneous subspace of a target
    object, optionally required not to contain a given subspace.

    A worklist closes each random span: ``space`` is always the span of the
    processed and queued vectors, each action maps every processed vector
    into it, and only images that enlarge it are queued.  ``m`` is unused but
    kept: the benchmark calls ``(target, target, seed=..., avoid=...)``."""
    rng = random.Random(seed)
    dim = target.dim
    entries = [mat.nonzero_entries() for mat in target.actions.values()]
    for _ in range(tries):
        k = rng.randint(1, max(1, dim - 1))
        rows = []
        chars = sorted(target.character_set())
        for _ in range(k):
            chi = chars[rng.randrange(len(chars))]
            idx = target.char_indices(chi)
            v = [ZERO] * dim
            for a in idx:
                if rng.random() < 0.6:
                    v[a] = rng.randint(-2, 2)
            if any(x != 0 for x in v):
                rows.append(v)
        if not rows:
            continue
        space = rref_basis(rows, dim)
        queue = space.basis_rows()
        while queue:
            v = queue.pop()
            for nonzero in entries:
                img = [ZERO] * dim
                for a, b, c in nonzero:
                    if v[b]:
                        img[a] += c * v[b]
                residue = space.reduce(img)
                if not vec_is_zero(residue):
                    space = rref_basis(space.basis_rows() + [residue], dim)
                    queue.append(residue)
        if space.dim in (0, dim):
            continue
        if avoid is not None and space.contains_subspace(avoid):
            continue
        return space
    return None
